(** The paper's 31-benchmark suite (Table 1), with deterministic seeds.

    In the default (scaled) configuration the largest UCCSD, molecule and
    random workloads are reduced so the full harness runs in minutes;
    [full:true] (or environment [PH_BENCH_FULL=1]) restores paper-scale
    string counts.  Every descriptor regenerates its program on demand. *)

open Ph_pauli_ir

type backend = SC | FT

type t = {
  name : string;
  category : string;  (** UCCSD / QAOA / Ising / Heisenberg / Molecule / Random *)
  backend : backend;
  generate : unit -> Program.t;
}

(** All 31 benchmarks, SC first. *)
val all : ?full:bool -> unit -> t list

val sc : ?full:bool -> unit -> t list
val ft : ?full:bool -> unit -> t list

(** Scheduler-scaling workloads (not part of the paper's 31): UCCSD and
    random Hamiltonians at 64/128/256 qubits on the FT backend, string
    counts capped so scheduling — not synthesis — dominates.  Drives the
    [schedule_s] study and the pr9+ perf-history rows. *)
val scale : unit -> t list

(** Look up by Table-1 name (e.g. ["UCCSD-12"], ["Rand-20-0.3"],
    ["Heisen-2D"], ["NaCl"]).
    @raise Not_found on unknown names. *)
val find : ?full:bool -> string -> t
