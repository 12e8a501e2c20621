(* In-memory spans recorded around the benchmark's calls into each
   layer's public functions, written out once as Chrome trace-event
   JSON (Perfetto and chrome://tracing open it offline). *)

type span = {
  id : int;
  name : string;
  job : int;  (** operation index the span belongs to *)
  parent : int;  (** [id] of the enclosing span, [-1] at top level *)
  start : float;
  stop : float;
  minor_words : float;  (** minor-heap words allocated inside the span *)
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next : int;
  mutable stack : int list;  (** open span ids, innermost first *)
}

let create () = { spans = []; next = 0; stack = [] }

(* [record t name ~job f] runs [f] inside a span.  [f] raising still
   closes the span, so a failed operation leaves a well-formed trace. *)
let record t name ~job f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let w0 = Gc.minor_words () in
  let start = Unix.gettimeofday () in
  let close () =
    let stop = Unix.gettimeofday () in
    let minor_words = Gc.minor_words () -. w0 in
    t.stack <- List.tl t.stack;
    t.spans <- { id; name; job; parent; start; stop; minor_words } :: t.spans
  in
  Fun.protect ~finally:close f

(* Recorded spans in the order they opened. *)
let spans t = List.sort (fun a b -> compare a.id b.id) t.spans

(* Total length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> total, Some (a, b)
        | Some (ca, cb) when a <= cb -> total, Some (ca, Float.max cb b)
        | Some (ca, cb) -> total +. (cb -. ca), Some (a, b))
      (0., None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of its interval
   covered by its direct children. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start, s.stop)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids)
    spans

(* Sum of self times per span name. *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace tbl s.name
        (self +. Option.value ~default:0. (Hashtbl.find_opt tbl s.name)))
    (self_times spans);
  tbl

let chrome_json spans =
  let module J = Ph_json in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let us x = J.Float (Float.round ((x -. t0) *. 1e7) /. 10.) in
  J.Obj
    [
      ( "traceEvents",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [
                   "name", J.String s.name;
                   "ph", J.String "X";
                   "ts", us s.start;
                   "dur", J.Float (Float.round ((s.stop -. s.start) *. 1e7) /. 10.);
                   "pid", J.Int 1;
                   "tid", J.Int 1;
                   ( "args",
                     J.Obj
                       [
                         "id", J.Int s.id;
                         "parent", J.Int s.parent;
                         "job", J.Int s.job;
                         "minor_words", J.Float s.minor_words;
                       ] );
                 ])
             spans) );
      "displayTimeUnit", J.String "ms";
    ]
