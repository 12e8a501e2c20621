(** A Pauli IR [program]: an ordered list of blocks (Figure 5).  The
    denotational semantics (Figure 7) sums blocks with matrix addition, so
    any block permutation — and any term permutation inside a block — is
    semantics-preserving; that freedom is what the scheduling passes
    exploit. *)

type t = private { n_qubits : int; blocks : Block.t list }

(** @raise Invalid_argument on an empty block list or inconsistent sizes. *)
val make : int -> Block.t list -> t

val n_qubits : t -> int
val blocks : t -> Block.t list
val block_count : t -> int

(** Total number of Pauli strings across all blocks. *)
val term_count : t -> int

(** Replace the block order; the multiset of blocks must be preserved by
    the caller (schedulers). *)
val with_blocks : t -> Block.t list -> t

(** Flatten to the term sequence in program order, with the rotation angle
    [θ = 2 · weight · parameter] each term lowers to. *)
val rotations : t -> (Ph_pauli.Pauli_string.t * float) list

(** [same_multiset a b] — do the two programs contain the same blocks
    (order-insensitively, comparing term lists and parameter values)?
    Used to validate schedulers. *)
val same_multiset : t -> t -> bool
