(** The [pauli_block] of the Pauli IR (Figure 5): a list of weighted Pauli
    strings sharing one real parameter.  Strings inside a block are always
    scheduled together — this is how algorithmic constraints (parameter
    sharing, symmetry preservation, term grouping) are encoded. *)

type param = { label : string option; value : float }
(** Variational parameters keep their [label] (θ, γ, ...); [value] is the
    numeric binding used when lowering to gates. *)

type t = private { terms : Ph_pauli.Pauli_term.t list; param : param }

(** [make terms param] builds a block.
    @raise Invalid_argument if [terms] is empty or mixes sizes. *)
val make : Ph_pauli.Pauli_term.t list -> param -> t

(** [single str coeff value] is the common one-string block. *)
val single : Ph_pauli.Pauli_string.t -> float -> float -> t

val fixed : float -> param
val symbolic : string -> float -> param

val n_qubits : t -> int
val term_count : t -> int
val terms : t -> Ph_pauli.Pauli_term.t list
val param : t -> param

(** Qubits with a non-identity operator in {e at least one} string —
    the "active qubits" of Section 5.2, ascending. *)
val active_qubits : t -> int list

(** {!active_qubits} as a bitset — what the schedulers' occupancy and
    disjointness queries consume. *)
val active_set : t -> Ph_pauli.Qubit_set.t

(** [active_length b] = |{!active_qubits}|, the sort key of the
    depth-oriented scheduler (Algorithm 1). *)
val active_length : t -> int

(** Qubits with a non-identity operator in {e every} string — the "core
    qubit list" used for SC-backend root selection (Algorithm 3). *)
val core_qubits : t -> int list

(** First term (blocks compare through it after lexicographic
    sorting, Section 4.1). *)
val representative : t -> Ph_pauli.Pauli_term.t

(** Last term — the scheduling-affinity tail (one pass, no
    [List.nth]-per-query). *)
val last_term : t -> Ph_pauli.Pauli_term.t

(** Sort the block's terms lexicographically (paper rank by default). *)
val sort_terms_lex : ?rank:(Ph_pauli.Pauli.t -> int) -> t -> t

(** Replace the term order (same multiset required by callers). *)
val with_terms : t -> Ph_pauli.Pauli_term.t list -> t

(** [disjoint a b] — no shared active qubit, so the blocks can run in
    parallel. *)
val disjoint : t -> t -> bool

(** [overlap a b] — paper's layer-pairing metric: qubits on which the last
    string of [a] and the first string of [b] carry the same non-identity
    operator. *)
val overlap : t -> t -> int

(** All strings of the block mutually commute (the usual algorithmic
    precondition noted in Section 4.1). *)
val mutually_commuting : t -> bool

(** [to_buffer ~param ~sorted buf b] appends [b] in the concrete syntax
    [{(P, w), …, param}], every float in its shortest round-tripping
    form.  [param]: [`Label] prints a symbolic parameter by its label
    (the text re-parses), [`Value] always prints the resolved value.
    [sorted] prints the terms lex-sorted ({!sort_terms_lex}) rather than
    as given.  The one printer behind [Parser.to_text], the batch cache
    key and the certificate block digests. *)
val to_buffer : param:[ `Label | `Value ] -> sorted:bool -> Buffer.t -> t -> unit
