(* The benchmark's own tests: span self-time arithmetic, percentile
   ranks and their sample counts, then a smoke run of every workload in
   both modes whose metric names must match BENCHMARK.json.  With
   [--layers], full-size traced runs of ft-wide and chem must find the
   layer each was chosen for (README.md) taking the largest self time. *)

module Json = Ph_json

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let close a b = Float.abs (a -. b) < 1e-9

let span id parent name start stop =
  { Spans.id; name; job = 0; parent; start; stop; minor_words = 0. }

let arithmetic () =
  (* a parent over [0, 10] with overlapping children [1, 3] and [2, 4]
     and a grandchild inside [6, 8]: the parent's self time excludes the
     union of its direct children only *)
  let spans =
    [
      span 0 (-1) "op" 0. 10.;
      span 1 0 "a" 1. 3.;
      span 2 0 "b" 2. 4.;
      span 3 0 "c" 6. 8.;
      span 4 3 "d" 6.5 7.;
    ]
  in
  let self = Spans.self_times spans in
  let of_id id = snd (List.find (fun (s, _) -> s.Spans.id = id) self) in
  check "self time excludes the union of child spans" (close (of_id 0) 5.);
  check "self time of a leaf is its duration" (close (of_id 1) 2.);
  check "self time excludes a grandchild only from its parent" (close (of_id 3) 1.5);
  let by_name = Spans.self_by_name spans in
  check "self times sum per name" (close (Hashtbl.find by_name "d") 0.5);
  let nested = List.filter (fun s -> s.Spans.name <> "b") spans in
  let total = List.fold_left (fun a (_, s) -> a +. s) 0. (Spans.self_times nested) in
  check "self times of properly nested spans partition the root" (close total 10.);
  let hundred = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check "p50 of 1..100 is 50" (close (Stats.percentile hundred 50.) 50.);
  check "p99 of 1..100 is 99" (close (Stats.percentile hundred 99.) 99.);
  let thousand = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  check "p99 of 1..1000 leaves 10 samples beyond it" (close (Stats.percentile thousand 99.) 990.);
  check "p100 is the maximum" (close (Stats.percentile hundred 100.) 100.);
  check "percentile of no samples is nan" (Float.is_nan (Stats.percentile [||] 50.));
  check "median of an even count takes the lower middle"
    (close (Stats.median [ 4.; 1.; 3.; 2. ]) 2.)

let contract_names key =
  match In_channel.with_open_text "BENCHMARK.json" In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    Some
      (List.map
         (fun m -> Json.to_str (Json.get "name" m))
         (Json.to_list (Json.get key (Json.parse text))))

let smoke out_dir =
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let exe = Sys.executable_name in
          let args =
            [| exe; "--workload"; workload; "--seed"; "3"; "--seconds"; "2"; "--trace";
               trace; "--smoke"; "--out"; out_dir |]
          in
          let ic = Unix.open_process_args_in exe args in
          let lines = In_channel.input_all ic |> String.split_on_char '\n' in
          let status = Unix.close_process_in ic in
          let label = Printf.sprintf "smoke %s trace=%s" workload trace in
          let last = List.nth_opt (List.rev (List.filter (( <> ) "") lines)) 0 in
          match status, Option.map Json.parse last with
          | Unix.WEXITED 0, Some json ->
            check (label ^ " correct") (Json.get "correct" json = Json.Bool true);
            let metrics =
              match Json.get "metrics" json with Json.Obj kv -> kv | _ -> []
            in
            check (label ^ " reports finite values")
              (List.for_all
                 (fun (_, m) -> Float.is_finite (Json.to_float (Json.get "value" m)))
                 metrics);
            (match contract_names (if trace = "1" then "per_layer" else "end_to_end") with
            | Some names ->
              check (label ^ " metric names match BENCHMARK.json")
                (List.sort compare names = List.sort compare (List.map fst metrics))
            | None -> ())
          | _ -> check (label ^ " exits 0 with a result") false)
        [ "0"; "1" ])
    Work.names

(* The line a traced run prints naming its largest layer. *)
let largest_prefix = "largest layer self time: "

let layers out_dir =
  List.iter
    (fun (workload, expected) ->
      let exe = Sys.executable_name in
      let args =
        [| exe; "--workload"; workload; "--seed"; "1"; "--seconds"; "20"; "--trace"; "1";
           "--out"; out_dir |]
      in
      let ic = Unix.open_process_args_in exe args in
      let lines = In_channel.input_all ic |> String.split_on_char '\n' in
      let status = Unix.close_process_in ic in
      let largest =
        List.find_map
          (fun l ->
            if String.starts_with ~prefix:largest_prefix l then
              Some
                (String.sub l (String.length largest_prefix)
                   (String.length l - String.length largest_prefix))
            else None)
          lines
      in
      check
        (Printf.sprintf "traced %s: %s is the largest self time (found %s)" workload expected
           (Option.value largest ~default:"none"))
        (status = Unix.WEXITED 0 && largest = Some expected))
    [ "ft-wide", "peephole.s"; "chem", "synthesis.s" ]

let main args =
  arithmetic ();
  let out_dir = Filename.concat (Filename.concat "perfbench" "out") "selftest" in
  if List.mem "--layers" args then layers out_dir
  else if not (List.mem "--unit" args) then smoke out_dir;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
