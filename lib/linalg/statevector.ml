type t = { n : int; re : float array; im : float array }

let dim sv = Array.length sv.re
let n_qubits sv = sv.n

let basis n k =
  if n <= 0 || n > 26 then invalid_arg "Statevector.basis: unsupported size";
  let d = 1 lsl n in
  if k < 0 || k >= d then invalid_arg "Statevector.basis: index";
  let sv = { n; re = Array.make d 0.; im = Array.make d 0. } in
  sv.re.(k) <- 1.;
  sv

let zero n = basis n 0

let copy sv = { sv with re = Array.copy sv.re; im = Array.copy sv.im }

let amplitude sv k : Cplx.t = { re = sv.re.(k); im = sv.im.(k) }

let apply1 sv q (u : Cplx.t array) =
  if Array.length u <> 4 then invalid_arg "Statevector.apply1: need 4 entries";
  let bit = 1 lsl q in
  let d = dim sv in
  let u00 = u.(0) and u01 = u.(1) and u10 = u.(2) and u11 = u.(3) in
  let k = ref 0 in
  while !k < d do
    if !k land bit = 0 then begin
      let i0 = !k and i1 = !k lor bit in
      let r0 = sv.re.(i0) and m0 = sv.im.(i0) in
      let r1 = sv.re.(i1) and m1 = sv.im.(i1) in
      sv.re.(i0) <- (u00.re *. r0) -. (u00.im *. m0) +. (u01.re *. r1) -. (u01.im *. m1);
      sv.im.(i0) <- (u00.re *. m0) +. (u00.im *. r0) +. (u01.re *. m1) +. (u01.im *. r1);
      sv.re.(i1) <- (u10.re *. r0) -. (u10.im *. m0) +. (u11.re *. r1) -. (u11.im *. m1);
      sv.im.(i1) <- (u10.re *. m0) +. (u10.im *. r0) +. (u11.re *. m1) +. (u11.im *. r1)
    end;
    incr k
  done

let apply_cnot sv ~control ~target =
  let cb = 1 lsl control and tb = 1 lsl target in
  let d = dim sv in
  for k = 0 to d - 1 do
    (* Visit each swapped pair once: control set, target clear. *)
    if k land cb <> 0 && k land tb = 0 then begin
      let j = k lor tb in
      let r = sv.re.(k) and m = sv.im.(k) in
      sv.re.(k) <- sv.re.(j);
      sv.im.(k) <- sv.im.(j);
      sv.re.(j) <- r;
      sv.im.(j) <- m
    end
  done

let apply_cz sv a b =
  let ab = 1 lsl a and bb = 1 lsl b in
  for k = 0 to dim sv - 1 do
    if k land ab <> 0 && k land bb <> 0 then begin
      sv.re.(k) <- -.sv.re.(k);
      sv.im.(k) <- -.sv.im.(k)
    end
  done

let apply_rzz sv theta a b =
  let ab = 1 lsl a and bb = 1 lsl b in
  let plus = Cplx.exp_i (-.theta /. 2.) and minus = Cplx.exp_i (theta /. 2.) in
  for k = 0 to dim sv - 1 do
    let same = (k land ab <> 0) = (k land bb <> 0) in
    let (ph : Cplx.t) = if same then plus else minus in
    let r = sv.re.(k) and m = sv.im.(k) in
    sv.re.(k) <- (ph.re *. r) -. (ph.im *. m);
    sv.im.(k) <- (ph.re *. m) +. (ph.im *. r)
  done

let apply_swap sv a b =
  let ab = 1 lsl a and bb = 1 lsl b in
  for k = 0 to dim sv - 1 do
    if k land ab <> 0 && k land bb = 0 then begin
      let j = (k lxor ab) lor bb in
      let r = sv.re.(k) and m = sv.im.(k) in
      sv.re.(k) <- sv.re.(j);
      sv.im.(k) <- sv.im.(j);
      sv.re.(j) <- r;
      sv.im.(j) <- m
    end
  done

let norm sv =
  let acc = ref 0. in
  for k = 0 to dim sv - 1 do
    acc := !acc +. (sv.re.(k) *. sv.re.(k)) +. (sv.im.(k) *. sv.im.(k))
  done;
  sqrt !acc

let prob sv k = (sv.re.(k) *. sv.re.(k)) +. (sv.im.(k) *. sv.im.(k))

let inner a b =
  if dim a <> dim b then invalid_arg "Statevector.inner";
  let re = ref 0. and im = ref 0. in
  for k = 0 to dim a - 1 do
    re := !re +. (a.re.(k) *. b.re.(k)) +. (a.im.(k) *. b.im.(k));
    im := !im +. (a.re.(k) *. b.im.(k)) -. (a.im.(k) *. b.re.(k))
  done;
  ({ re = !re; im = !im } : Cplx.t)

let sample sv ~rand =
  let r = rand () in
  let rec go k acc =
    if k >= dim sv - 1 then k
    else
      let acc = acc +. prob sv k in
      if r < acc then k else go (k + 1) acc
  in
  go 0 0.

let equal_up_to_phase ?(eps = 1e-8) a b =
  dim a = dim b
  &&
  let ip = Cplx.norm (inner a b) in
  let na = norm a and nb = norm b in
  (* The inner product sums [dim] products of amplitudes that each carry
     rounding error from the gate applications that produced them, so the
     achievable accuracy degrades with dimension; a fixed cutoff that is
     right at 2 qubits spuriously rejects correct 12-qubit circuits.
     [eps] is therefore a per-dimension tolerance. *)
  abs_float (ip -. (na *. nb)) <= eps *. float_of_int (dim a)
