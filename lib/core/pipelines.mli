(** The evaluation's end-to-end configurations: every compiler (routed
    onto the device on the SC backend) is followed by the same
    {!Compiler.generic_stage} — SWAP decomposition, then peephole
    cleanup — mirroring how the paper runs each first-stage tool through
    Qiskit-L3.  Used by the bench harness and the examples. *)

open Ph_pauli
open Ph_pauli_ir
open Ph_gatelevel
open Ph_hardware

type run = {
  circuit : Circuit.t;
  rotations : (Pauli_string.t * float) list;
  initial_layout : Layout.t option;
  final_layout : Layout.t option;
  metrics : Report.metrics;
  trace : Report.trace;
      (** stage spans and pass counters; baseline pipelines time
          synthesis (routing included), swap and peephole and leave the
          other spans at zero *)
}

(** Paulihedral under [config]: {!Compiler.compile} on any backend
    ([Config.ft] defaults to GCO scheduling, [Config.sc] to DO). *)
val ph : Config.t -> Program.t -> run

(** t|ket⟩-style commuting-set synthesis, FT.  [strategy] as in
    [Ph_baselines.Tk_like.compile]: [`Pairwise] (default, the tket the
    paper benchmarked) or [`Sets] (stronger van den Berg–Temme
    diagonalization). *)
val tk_ft : ?strategy:[ `Pairwise | `Sets ] -> Ph_pauli_ir.Program.t -> run

(** t|ket⟩-style + generic router on an SC device. *)
val tk_sc : ?strategy:[ `Pairwise | `Sets ] -> Coupling.t -> Program.t -> run

(** Naive per-term synthesis, FT (the Table 1 reference). *)
val naive_ft : Program.t -> run

(** Naive + generic router on an SC device. *)
val naive_sc : Coupling.t -> Program.t -> run

(** Naive + the router at its weakest: identity initial layout,
    lookahead 1 — the generic-compiler strength the paper's Figure 11
    baseline had (bench [fig11], [examples/qaoa_maxcut.ml]). *)
val naive_sc_trivial : Coupling.t -> Program.t -> run

(** Algorithm-specific QAOA compiler on an SC device (Table 3). *)
val qaoa_sc : Coupling.t -> Program.t -> run

(** Verify a run against its rotation trace with the scalable
    Pauli-frame checker (FT: identity residue; SC: layout-consistent
    permutation).  Requires the run's circuit to still be
    Clifford+Rz. *)
val verified : run -> bool
