(* The 65-qubit heavy-hexagon layout of IBM's Hummingbird family
   (Manhattan): five rows of ten qubits linked by bridge qubits. *)
let manhattan_edges =
  [ (* row 0: qubits 0..9 *)
    0, 1; 1, 2; 2, 3; 3, 4; 4, 5; 5, 6; 6, 7; 7, 8; 8, 9;
    (* bridges to row 1 *)
    0, 10; 4, 11; 8, 12; 10, 13; 11, 17; 12, 21;
    (* row 1: qubits 13..23 *)
    13, 14; 14, 15; 15, 16; 16, 17; 17, 18; 18, 19; 19, 20; 20, 21; 21, 22; 22, 23;
    (* bridges to row 2 *)
    15, 24; 19, 25; 23, 26; 24, 29; 25, 33; 26, 37;
    (* row 2: qubits 27..37 *)
    27, 28; 28, 29; 29, 30; 30, 31; 31, 32; 32, 33; 33, 34; 34, 35; 35, 36; 36, 37;
    (* bridges to row 3 *)
    27, 38; 31, 39; 35, 40; 38, 41; 39, 45; 40, 49;
    (* row 3: qubits 41..51 *)
    41, 42; 42, 43; 43, 44; 44, 45; 45, 46; 46, 47; 47, 48; 48, 49; 49, 50; 50, 51;
    (* bridges to row 4 *)
    43, 52; 47, 53; 51, 54; 52, 56; 53, 60; 54, 64;
    (* row 4: qubits 55..64 *)
    55, 56; 56, 57; 57, 58; 58, 59; 59, 60; 60, 61; 61, 62; 62, 63; 63, 64 ]

let manhattan = Coupling.create 65 manhattan_edges

let grid rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Devices.grid";
  let idx r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (idx r c, idx r (c + 1)) :: !edges;
      if r + 1 < rows then edges := (idx r c, idx (r + 1) c) :: !edges
    done
  done;
  Coupling.create (rows * cols) !edges

let melbourne = grid 2 8

let heavy_hex ~rows ~row_length =
  if rows < 1 || row_length < 3 then invalid_arg "Devices.heavy_hex";
  let row_base r = r * row_length in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to row_length - 2 do
      edges := (row_base r + c, row_base r + c + 1) :: !edges
    done
  done;
  (* Bridge qubits sit after all row qubits. *)
  let next_bridge = ref (rows * row_length) in
  for r = 0 to rows - 2 do
    let offset = if r mod 2 = 0 then 0 else 2 in
    let c = ref offset in
    while !c < row_length do
      let b = !next_bridge in
      incr next_bridge;
      edges := (row_base r + !c, b) :: (b, row_base (r + 1) + !c) :: !edges;
      c := !c + 4
    done
  done;
  Coupling.create !next_bridge !edges

let line n = grid 1 n
