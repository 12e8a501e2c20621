(** Construction of simulation kernels from Hamiltonians (Section 2.2).

    [exp(iHt)] with [H = Σ w_j P_j] is approximated by the first-order
    Trotter formula as [steps] repetitions of the per-term rotations with
    [Δt = time / steps]. *)

open Ph_pauli

(** [trotterize ~n_qubits ~terms ~time ~steps] builds the kernel program:
    every term becomes its own single-string block with parameter [Δt],
    and the whole block list is repeated [steps] times (Figure 3a /
    Figure 6a). *)
val trotterize :
  n_qubits:int -> terms:Pauli_term.t list -> time:float -> steps:int -> Program.t

(** [second_order ~n_qubits ~terms ~time ~steps] — the symmetric
    (Suzuki) second-order formula: each step applies every term for
    [Δt/2] in order and again in reverse order, improving the error from
    [O(Δt)] to [O(Δt²)] per unit time. *)
val second_order :
  n_qubits:int -> terms:Pauli_term.t list -> time:float -> steps:int -> Program.t

(** [qaoa_layer ~n_qubits ~terms ~gamma] puts every term in one block
    sharing the parameter γ (Figure 6c). *)
val qaoa_layer : n_qubits:int -> terms:Pauli_term.t list -> gamma:float -> Program.t
