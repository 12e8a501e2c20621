(* The open-loop load generator, run as its own process ([pb.exe gen]).

   Reads the schedule on stdin — first line the path of the daemon's
   Unix-domain socket, then one request per line as [due-offset-seconds TAB json-line] — spreads
   the requests round-robin over [conns] connections, and sends each at
   its due time whether or not earlier replies have arrived.  One
   sender and one reader thread per connection; the daemon answers a
   connection's requests in order.  Prints one line per request:
   [index status latency_ms lag_ms record_md5], latency counted from
   when the request was due, lag being how late it was sent. *)

module Protocol = Ph_serve.Protocol

let conns = 2

let now = Unix.gettimeofday

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* Status of one reply line, and the bytes of its record for the
   byte-equality check. *)
let classify line =
  match Ph_json.parse line with
  | exception Ph_json.Parse_error _ -> "transport", ""
  | json -> (
    match Ph_json.member "ok" json, Ph_json.member "record" json with
    | Some (Ph_json.Bool true), Some _ ->
      let tag = "\"record\":" in
      let rec find i =
        if i + String.length tag > String.length line then None
        else if String.sub line i (String.length tag) = tag then Some i
        else find (i + 1)
      in
      (match find 0 with
      | Some i ->
        let start = i + String.length tag in
        "ok", String.sub line start (String.length line - start - 1)
      | None -> "transport", "")
    | _ ->
      let code =
        match Option.bind (Ph_json.member "error" json) (Ph_json.member "code") with
        | Some (Ph_json.String c) -> c
        | _ -> "transport"
      in
      code, "")

let main () =
  let path = input_line stdin in
  let reqs =
    In_channel.input_all stdin |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           match String.index_opt l '\t' with
           | Some i ->
             float_of_string (String.sub l 0 i), String.sub l (i + 1) (String.length l - i - 1)
           | None -> failwith "gen: malformed schedule line")
    |> Array.of_list
  in
  let n = Array.length reqs in
  let sent = Array.make n nan and recv = Array.make n nan in
  let replies = Array.make n "" in
  let fds =
    Array.init conns (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd)
  in
  let mine c = List.filter (fun i -> i mod conns = c) (List.init n Fun.id) in
  let t0 = now () +. 0.1 in
  let sender c () =
    try
      List.iter
        (fun i ->
          let due, line = reqs.(i) in
          let wait = t0 +. due -. now () in
          if wait > 0. then Unix.sleepf wait;
          sent.(i) <- now ();
          write_all fds.(c) (line ^ "\n"))
        (mine c)
    with Unix.Unix_error _ -> ()
  in
  let reader c () =
    let r = Protocol.reader fds.(c) in
    let rec go = function
      | [] -> ()
      | i :: rest -> (
        match Protocol.read_line r with
        | `Line l ->
          recv.(i) <- now ();
          replies.(i) <- l;
          go rest
        | `Eof | `Oversized -> ())
    in
    go (mine c)
  in
  let threads =
    List.concat_map
      (fun c -> [ Thread.create (sender c) (); Thread.create (reader c) () ])
      (List.init conns Fun.id)
  in
  List.iter Thread.join threads;
  Array.iter Unix.close fds;
  let out = Buffer.create (n * 64) in
  Array.iteri
    (fun i (due, _) ->
      let status, record =
        if replies.(i) = "" then "transport", "" else classify replies.(i)
      in
      Printf.bprintf out "%d\t%s\t%.6f\t%.6f\t%s\n" i status
        ((recv.(i) -. (t0 +. due)) *. 1000.)
        ((sent.(i) -. (t0 +. due)) *. 1000.)
        (Digest.to_hex (Digest.string record)))
    reqs;
  print_string (Buffer.contents out)
