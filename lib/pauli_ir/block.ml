open Ph_pauli

type param = { label : string option; value : float }

type t = { terms : Pauli_term.t list; param : param }

let make terms param =
  match terms with
  | [] -> invalid_arg "Block.make: empty term list"
  | first :: rest ->
    let n = Pauli_term.n_qubits first in
    if List.exists (fun t -> Pauli_term.n_qubits t <> n) rest then
      invalid_arg "Block.make: mixed qubit counts";
    { terms; param }

let fixed value = { label = None; value }
let symbolic label value = { label = Some label; value }

let single str coeff value = make [ Pauli_term.make str coeff ] (fixed value)

let n_qubits b = Pauli_term.n_qubits (List.hd b.terms)

let term_count b = List.length b.terms
let terms b = b.terms
let param b = b.param

let active_set b =
  let acc = Qubit_set.create (n_qubits b) in
  List.iter
    (fun (t : Pauli_term.t) ->
      Qubit_set.union_into acc (Pauli_string.support_set t.str))
    b.terms;
  acc

let active_qubits b = Qubit_set.to_list (active_set b)

let active_length b = Qubit_set.cardinal (active_set b)

let core_qubits b =
  let n = n_qubits b in
  let core = Array.make n true in
  List.iter
    (fun (t : Pauli_term.t) ->
      for q = 0 to n - 1 do
        if not (Pauli_string.active t.str q) then core.(q) <- false
      done)
    b.terms;
  List.filter (fun q -> core.(q)) (List.init n Fun.id)

let representative b = List.hd b.terms

let rec last = function [ t ] -> t | _ :: rest -> last rest | [] -> assert false

let last_term b = last b.terms

let sort_terms_lex ?rank b =
  let cmp = Pauli_term.compare_lex ?rank in
  (* Already-sorted fast path: generators frequently emit sorted blocks,
     and reusing [b] keeps the scheduler's per-block allocation at zero
     for them.  [List.sort] is [List.stable_sort], so the result is the
     same list either way. *)
  let rec sorted = function
    | a :: (b :: _ as rest) -> cmp a b <= 0 && sorted rest
    | _ -> true
  in
  if sorted b.terms then b else { b with terms = List.sort cmp b.terms }

let with_terms b terms = make terms b.param

let disjoint a b = Qubit_set.disjoint (active_set a) (active_set b)

let overlap a b = Pauli_string.overlap (last_term a).str (representative b).str

let mutually_commuting b =
  let rec go = function
    | [] -> true
    | (t : Pauli_term.t) :: rest ->
      List.for_all (fun (u : Pauli_term.t) -> Pauli_string.commutes t.str u.str) rest
      && go rest
  in
  go b.terms

let to_buffer ~param ~sorted buf b =
  let b = if sorted then sort_terms_lex b else b in
  Buffer.add_char buf '{';
  List.iter
    (fun (t : Pauli_term.t) ->
      Buffer.add_char buf '(';
      Buffer.add_string buf (Pauli_string.to_string t.str);
      Buffer.add_string buf ", ";
      Buffer.add_string buf (Float_text.repr t.coeff);
      Buffer.add_string buf "), ")
    b.terms;
  Buffer.add_string buf
    (match param, b.param.label with
    | `Label, Some l -> l
    | _ -> Float_text.repr b.param.value);
  Buffer.add_char buf '}'
