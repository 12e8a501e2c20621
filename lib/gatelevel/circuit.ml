open Ph_linalg

type t = { n_qubits : int; gates : Gate.t array }

module Builder = struct
  type t = { n : int; mutable buf : Gate.t array; mutable len : int }

  let create n = { n; buf = Array.make 64 (Gate.H 0); len = 0 }

  let n_qubits b = b.n

  let add b g =
    Ph_perf.Counter.bump Ph_perf.Counter.circuit_gates_built;
    if b.len = Array.length b.buf then begin
      let buf = Array.make (2 * b.len) (Gate.H 0) in
      Array.blit b.buf 0 buf 0 b.len;
      b.buf <- buf
    end;
    b.buf.(b.len) <- g;
    b.len <- b.len + 1

  let add_list b gs = List.iter (add b) gs

  let length b = b.len

  let to_circuit b = { n_qubits = b.n; gates = Array.sub b.buf 0 b.len }

  let append b c = Array.iter (add b) c.gates
end

let of_gates n gates = { n_qubits = n; gates = Array.of_list gates }
let empty n = { n_qubits = n; gates = [||] }

let n_qubits c = c.n_qubits
let gates c = c.gates
let to_list c = Array.to_list c.gates
let length c = Array.length c.gates

let concat a b =
  if a.n_qubits <> b.n_qubits then invalid_arg "Circuit.concat";
  { a with gates = Array.append a.gates b.gates }

let cnot_count c =
  Array.fold_left
    (fun acc g ->
      match g with
      | Gate.Cnot _ | Gate.Rxx _ -> acc + 1
      | Gate.Swap _ -> acc + 3
      | _ -> acc)
    0 c.gates

let swap_count c =
  Array.fold_left (fun acc g -> match g with Gate.Swap _ -> acc + 1 | _ -> acc) 0 c.gates

let single_qubit_count c =
  Array.fold_left
    (fun acc g -> if Gate.is_two_qubit g then acc else acc + 1)
    0 c.gates

let total_count c = cnot_count c + single_qubit_count c

(* The frontier walk allocates nothing per gate: [Gate.iter_qubits]
   replaces the qubit-list build, and the scan/store closures are
   hoisted out of the gate loop. *)
let depth c =
  let frontier = Array.make (max 1 c.n_qubits) 0 in
  let level = ref 0 in
  let scan q = if frontier.(q) > !level then level := frontier.(q) in
  let store q = frontier.(q) <- !level in
  Array.iter
    (fun g ->
      level := 0;
      Gate.iter_qubits scan g;
      level := !level + (match g with Gate.Swap _ -> 3 | _ -> 1);
      Gate.iter_qubits store g)
    c.gates;
  Array.fold_left max 0 frontier

let decompose_swaps c =
  let b = Builder.create c.n_qubits in
  Array.iter
    (fun g ->
      match g with
      | Gate.Swap (x, y) ->
        Builder.add_list b [ Gate.Cnot (x, y); Gate.Cnot (y, x); Gate.Cnot (x, y) ]
      | g -> Builder.add b g)
    c.gates;
  Builder.to_circuit b

let remap f c = { c with gates = Array.map (Gate.remap f) c.gates }

let dagger c =
  let m = Array.length c.gates in
  { c with gates = Array.init m (fun i -> Gate.dagger c.gates.(m - 1 - i)) }

let used_qubits c =
  let used = Array.make (max 1 c.n_qubits) false in
  let mark q = used.(q) <- true in
  Array.iter (fun g -> Gate.iter_qubits mark g) c.gates;
  List.filter (fun q -> used.(q)) (List.init c.n_qubits Fun.id)

let compact c =
  let used = used_qubits c in
  let table = Hashtbl.create 16 in
  List.iteri (fun i q -> Hashtbl.replace table q i) used;
  let f q =
    match Hashtbl.find_opt table q with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Circuit.compact: unused qubit %d" q)
  in
  { n_qubits = max 1 (List.length used); gates = Array.map (Gate.remap f) c.gates }, f

let apply c sv =
  if Statevector.n_qubits sv <> c.n_qubits then invalid_arg "Circuit.apply";
  Array.iter
    (fun g ->
      match g with
      | Gate.Cnot (a, b) -> Statevector.apply_cnot sv ~control:a ~target:b
      | Gate.Swap (a, b) -> Statevector.apply_swap sv a b
      | Gate.Rxx (t, a, b) ->
        (* exp(-iθ/2 XX) = (H⊗H)·exp(-iθ/2 ZZ)·(H⊗H) *)
        let h = Gate.matrix1 (Gate.H 0) in
        Statevector.apply1 sv a h;
        Statevector.apply1 sv b h;
        Statevector.apply_rzz sv t a b;
        Statevector.apply1 sv a h;
        Statevector.apply1 sv b h
      | g -> Statevector.apply1 sv (List.hd (Gate.qubits g)) (Gate.matrix1 g))
    c.gates

let unitary c =
  if c.n_qubits > 12 then invalid_arg "Circuit.unitary: too many qubits";
  let d = 1 lsl c.n_qubits in
  let m = Matrix.create d d in
  for k = 0 to d - 1 do
    let sv = Statevector.basis c.n_qubits k in
    apply c sv;
    for i = 0 to d - 1 do
      Matrix.set m i k (Statevector.amplitude sv i)
    done
  done;
  m

(* Two allocation-light passes replace the old Hashtbl.add/find_all
   bucketing: first the frontier walk records each gate's level in a
   flat array, then a backwards fill builds each level's bucket list
   front-to-back, preserving within-level gate order. *)
let layers c =
  let n = Array.length c.gates in
  let frontier = Array.make (max 1 c.n_qubits) 0 in
  let level_of = Array.make (max 1 n) 0 in
  let max_level = ref 0 in
  let level = ref 0 in
  let scan q = if frontier.(q) > !level then level := frontier.(q) in
  let store q = frontier.(q) <- !level in
  Array.iteri
    (fun i g ->
      level := 0;
      Gate.iter_qubits scan g;
      incr level;
      Gate.iter_qubits store g;
      level_of.(i) <- !level;
      if !level > !max_level then max_level := !level)
    c.gates;
  let buckets = Array.make (!max_level + 1) [] in
  for i = n - 1 downto 0 do
    let l = level_of.(i) in
    buckets.(l) <- c.gates.(i) :: buckets.(l)
  done;
  List.init !max_level (fun i -> buckets.(i + 1))

let pp fmt c =
  Format.fprintf fmt "// %d qubits, %d gates@." c.n_qubits (Array.length c.gates);
  Array.iter (fun g -> Format.fprintf fmt "%a@." Gate.pp g) c.gates
