(* Domain worker pool: a FIFO of jobs behind one mutex, a condition
   variable for "queue non-empty" (workers) and one for "a job finished"
   (awaiters and [shutdown]).  A job fills its promise under the mutex,
   which gives the happens-before edge that makes the answer visible to
   its awaiter. *)

type t = {
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  finished : Condition.t;
  mutable pending : int; (* admitted and not yet finished *)
  mutable closed : bool;
  mutable domains : unit Domain.t list;
  mutable unexpected : int; (* jobs that raised *)
  mutable last_unexpected : string option;
  mutable dead_workers : int; (* workers killed by a fatal runtime exception *)
}

type worker_stats = {
  unexpected_exceptions : int;
  last_unexpected : string option;
  dead_workers : int;
}

type timing = { queue_s : float; run_s : float }

type 'a promise = {
  pool : t;
  mutable answer : (('a, exn) result * timing) option;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Runs with the lock held; returns with the lock held.  Queued jobs are
   drained before a closed pool lets its workers exit. *)
let next_job t =
  let rec go () =
    if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
    else if t.closed then None
    else begin
      Condition.wait t.nonempty t.mutex;
      go ()
    end
  in
  go ()

let rec worker t () =
  match locked t (fun () -> next_job t) with
  | None -> ()
  | Some job -> (
    match job () with
    | () -> worker t ()
    | exception e ->
      (* Only a fatal exception escapes a job (see [try_submit]), after
         its promise is filled.  This worker's state (heap, C stack) can
         no longer be trusted: spawn a replacement, so queued jobs are
         not stranded, and die loudly. *)
      (try
         locked t (fun () ->
             if not t.closed then
               t.domains <- Domain.spawn (worker t) :: t.domains)
       with _ -> ());
      raise e)

let create n =
  if n < 1 then invalid_arg "Pool.create: need at least one worker";
  let t =
    {
      queue = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      finished = Condition.create ();
      pending = 0;
      closed = false;
      domains = [];
      unexpected = 0;
      last_unexpected = None;
      dead_workers = 0;
    }
  in
  t.domains <- List.init n (fun _ -> Domain.spawn (worker t));
  t

let timed ~submitted f =
  let start = Unix.gettimeofday () in
  let r = try Ok (f ()) with e -> Error e in
  r, { queue_s = start -. submitted; run_s = Unix.gettimeofday () -. start }

(* Fatal runtime conditions: after these the worker must not keep
   serving jobs.  Every other exception is an ordinary job failure,
   answered through the promise and counted in [worker_stats]. *)
let is_fatal = function
  | Out_of_memory | Stack_overflow -> true
  | _ -> false

(* Admission control: accept only while fewer than [max_pending] jobs
   are admitted-but-unfinished (queued or running).  The check and the
   enqueue are one critical section, so concurrent submitters can never
   overshoot the bound. *)
let try_submit t ~max_pending f =
  let p = { pool = t; answer = None } in
  let submitted = Unix.gettimeofday () in
  let job () =
    let ((r, _) as answer) = timed ~submitted f in
    locked t (fun () ->
        (match r with
        | Ok _ -> ()
        | Error e ->
          t.unexpected <- t.unexpected + 1;
          t.last_unexpected <- Some (Printexc.to_string e);
          if is_fatal e then t.dead_workers <- t.dead_workers + 1);
        t.pending <- t.pending - 1;
        p.answer <- Some answer;
        Condition.broadcast t.finished);
    match r with Error e when is_fatal e -> raise e | _ -> ()
  in
  locked t (fun () ->
      if t.closed then invalid_arg "Pool.try_submit: pool is shut down";
      if t.pending >= max_pending then None
      else begin
        Queue.push job t.queue;
        t.pending <- t.pending + 1;
        Condition.signal t.nonempty;
        Some p
      end)

let await p =
  let t = p.pool in
  locked t (fun () ->
      let rec go () =
        match p.answer with
        | Some answer -> answer
        | None ->
          Condition.wait t.finished t.mutex;
          go ()
      in
      go ())

let pending t = locked t (fun () -> t.pending)

let worker_stats t =
  locked t (fun () ->
      {
        unexpected_exceptions = t.unexpected;
        last_unexpected = t.last_unexpected;
        dead_workers = t.dead_workers;
      })

let shutdown t =
  let domains =
    locked t (fun () ->
        while t.pending > 0 do
          Condition.wait t.finished t.mutex
        done;
        t.closed <- true;
        Condition.broadcast t.nonempty;
        let ds = t.domains in
        t.domains <- [];
        ds)
  in
  (* A worker that died of a fatal exception rethrows it at [join]; the
     failure was already surfaced through [worker_stats], so the joins
     must still release every remaining domain. *)
  List.iter (fun d -> try Domain.join d with _ -> ()) domains

(* One job runs on the caller's domain in list order: no spawn, no
   scheduling jitter, so `--jobs 1` is exactly the sequential program. *)
let map_timed ~jobs f xs =
  let jobs = min jobs (List.length xs) in
  if jobs <= 1 then
    let submitted = Unix.gettimeofday () in
    List.map (fun x -> timed ~submitted (fun () -> f x)) xs
  else begin
    let pool = create jobs in
    let promises =
      List.map
        (fun x -> Option.get (try_submit pool ~max_pending:max_int (fun () -> f x)))
        xs
    in
    let answers = List.map await promises in
    shutdown pool;
    answers
  end

let map ~jobs f xs = List.map fst (map_timed ~jobs f xs)
