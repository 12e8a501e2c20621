(** The persistent compile daemon.

    One accept thread listens on a TCP or Unix-domain socket; each
    connection gets a lightweight reader thread speaking the NDJSON
    protocol ({!Protocol}); compile jobs execute on a fixed-size
    {!Ph_pool.Pool} of worker domains behind an admission bound, so the
    daemon sheds load with structured [overloaded] responses instead of
    queueing without limit.  A shared {!Ph_pool.Cache} stays warm
    across requests (and across restarts, when its disk tier is
    enabled).

    A compile request takes the same path as a [phc batch] job
    ([Ph_pool.Batch.parse], [cache_key] / [lookup], then
    [compile_checked] on a worker; only verified records are stored),
    so responses are byte-identical to [phc compile --json --normalize]
    and to the normalized [phc batch] record for the same (source,
    options): the record carries the request's [name] and config name,
    is normalized with [Report.normalize_record] and serialized by the
    same [Report.record_to_json].

    {b Drain sequence} (SIGTERM / SIGINT / [shutdown] request /
    {!drain}): stop accepting connections → refuse new compile
    admissions with [draining] → wait for in-flight jobs to answer →
    close idle connections → shut the worker pool down → publish final
    stats.  In-flight work is never abandoned. *)

type config = {
  address : Protocol.address;
  jobs : int;  (** worker domains (≥ 1) *)
  max_queue : int;
      (** admission bound: compile jobs admitted-but-unfinished (queued
          plus running).  At the bound, compile requests receive an
          [overloaded] error immediately — backpressure, not stalling.
          [0] rejects every compile (useful for tests). *)
  max_line : int;  (** NDJSON line cap; longer requests get [oversized]
                       and the connection closes *)
  cache : Ph_pool.Cache.t option;  (** warm cross-request compile cache *)
  log : string -> unit;  (** lifecycle lines (listening, drain, done) *)
}

(** [config address] with defaults: [jobs = 1], [max_queue = 64],
    [max_line = Protocol.default_max_line], no cache, silent log. *)
val config :
  ?jobs:int ->
  ?max_queue:int ->
  ?max_line:int ->
  ?cache:Ph_pool.Cache.t ->
  ?log:(string -> unit) ->
  Protocol.address ->
  config

type t

(** Bind, listen and serve.  Returns once the accept thread is running;
    SIGPIPE is ignored process-wide (socket writes must fail with
    [EPIPE], not kill the daemon).
    @raise Unix.Unix_error when the address cannot be bound. *)
val start : config -> t

(** The bound address — a [Tcp (host, 0)] config reports the actual
    ephemeral port here. *)
val address : t -> Protocol.address

(** Ask the daemon to drain.  Async-signal-safe (sets a flag the accept
    thread polls); returns immediately.  Idempotent. *)
val request_drain : t -> unit

(** Block until the daemon has fully drained. *)
val wait : t -> unit

(** {!request_drain} then {!wait}. *)
val drain : t -> unit

(** Route SIGTERM and SIGINT to {!request_drain}. *)
val install_signal_handlers : t -> unit

(** Live (or, after drain, final) operational counters (schema
    [phc-serve-stats/2]): request outcomes, queue depth and admission
    bound, worker-pool health ({!Ph_pool.Pool.worker_stats}), cache
    counters, and a [stages] object holding [compiles], [compile_s] and
    one [<stage>_s] per span stage ([Report.stages] from the start,
    [analysis_s] once an analyzed compile ran), each summing that
    stage's span wall time over every compiled job's [Report.trace]. *)
val stats_json : t -> Ph_json.t
