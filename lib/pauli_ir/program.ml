open Ph_pauli

type t = { n_qubits : int; blocks : Block.t list }

let make n_qubits blocks =
  if blocks = [] then invalid_arg "Program.make: empty program";
  List.iter
    (fun b ->
      if Block.n_qubits b <> n_qubits then
        invalid_arg
          (Printf.sprintf "Program.make: block on %d qubits in a %d-qubit program"
             (Block.n_qubits b) n_qubits))
    blocks;
  { n_qubits; blocks }

let n_qubits p = p.n_qubits
let blocks p = p.blocks
let block_count p = List.length p.blocks

let term_count p =
  List.fold_left (fun acc b -> acc + Block.term_count b) 0 p.blocks

let with_blocks p blocks = make p.n_qubits blocks

let rotations p =
  List.concat_map
    (fun (b : Block.t) ->
      List.map
        (fun (t : Pauli_term.t) -> t.str, 2. *. t.coeff *. b.param.value)
        b.terms)
    p.blocks

(* Canonical key of a block: sorted term list plus parameter value. *)
let block_key (b : Block.t) =
  let terms =
    List.sort
      (fun (a : Pauli_term.t) (c : Pauli_term.t) ->
        let d = Pauli_string.compare a.str c.str in
        if d <> 0 then d else Stdlib.compare a.coeff c.coeff)
      b.terms
  in
  ( List.map (fun (t : Pauli_term.t) -> Pauli_string.to_string t.str, t.coeff) terms,
    b.param.value )

let same_multiset a b =
  let keys p = List.sort Stdlib.compare (List.map block_key p.blocks) in
  a.n_qubits = b.n_qubits && keys a = keys b
