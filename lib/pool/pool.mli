(** Fixed-size domain worker pool over a mutex/condition-protected work
    queue.

    Workers are OCaml 5 [Domain]s; jobs are closures pulled from a FIFO
    queue.  Every job answers through a {!promise}: its value, or the
    exception it raised (fault isolation — a raising job neither kills
    its worker nor strands its awaiter).  [map] preserves submission
    order in its result list regardless of completion order, which is
    what makes pooled batch reports byte-identical to sequential ones. *)

type t

(** [create n] spawns [n] worker domains ([n >= 1]). *)
val create : int -> t

(** Per-job pool telemetry. *)
type timing = {
  queue_s : float;  (** submission → a worker picked the job up *)
  run_s : float;  (** job body wall time *)
}

(** A submitted job's eventual answer. *)
type 'a promise

(** [try_submit t ~max_pending f] — enqueue [f] unless [t] already has
    [max_pending] admitted-but-unfinished jobs (queued or running), in
    which case return [None] and enqueue nothing.  Check and enqueue
    are atomic, so concurrent submitters cannot overshoot the bound:
    this is the admission-control primitive of the serve daemon's
    backpressure.  @raise Invalid_argument after [shutdown]. *)
val try_submit : t -> max_pending:int -> (unit -> 'a) -> 'a promise option

(** Block until the job has finished; [Error e] when it raised [e].  The
    job no longer counts in {!pending} once its promise is filled. *)
val await : 'a promise -> ('a, exn) result * timing

(** Admitted-but-unfinished jobs (queue depth plus running jobs). *)
val pending : t -> int

(** Job bodies that raised.  A non-fatal exception is counted and the
    worker keeps serving; a fatal one ([Out_of_memory],
    [Stack_overflow]) additionally kills its worker (after its promise
    is filled and a replacement is spawned), because the worker's state
    can no longer be trusted.  A service should alarm when
    [unexpected_exceptions] grows. *)
type worker_stats = {
  unexpected_exceptions : int;  (** total raising jobs *)
  last_unexpected : string option;  (** printed form of the latest one *)
  dead_workers : int;  (** workers killed by fatal exceptions *)
}

val worker_stats : t -> worker_stats

(** Let every admitted job finish, then join and release the worker
    domains.  The pool must not be used afterwards. *)
val shutdown : t -> unit

(** [map ~jobs f xs] runs [f] over [xs] and returns the results in list
    order.  A raising call yields [Error exn] in its slot; the other
    jobs still complete.  [jobs] is clamped to the length of [xs]; with
    at most one job [f] runs on the calling domain in list order and no
    pool is created, otherwise on a fresh [jobs]-worker pool. *)
val map : jobs:int -> ('a -> 'b) -> 'a list -> ('b, exn) result list

(** {!map} plus per-job queue-wait / run telemetry. *)
val map_timed :
  jobs:int -> ('a -> 'b) -> 'a list -> (('b, exn) result * timing) list
