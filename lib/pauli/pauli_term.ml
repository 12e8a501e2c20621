type t = { str : Pauli_string.t; coeff : float }

let make str coeff = { str; coeff }

let n_qubits t = Pauli_string.n_qubits t.str

let equal a b = Pauli_string.equal a.str b.str && a.coeff = b.coeff

let compare_lex ?rank a b =
  let c = Pauli_string.compare_lex ?rank a.str b.str in
  if c <> 0 then c else Stdlib.compare a.coeff b.coeff
