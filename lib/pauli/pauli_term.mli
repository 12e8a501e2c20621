(** Weighted Pauli strings — the [⟨pauli_str, weight⟩] elements of the
    Pauli IR.  The simulation kernel turns a term [(P, w)] inside a block
    with parameter [t] into the rotation [exp(-i·w·t·P)] (a single [Rz]
    surrounded by basis changes and CNOT trees). *)

type t = { str : Pauli_string.t; coeff : float }

val make : Pauli_string.t -> float -> t

val n_qubits : t -> int

val equal : t -> t -> bool

(** Lexicographic order on the underlying strings (coefficients break
    ties). *)
val compare_lex : ?rank:(Pauli.t -> int) -> t -> t -> int
