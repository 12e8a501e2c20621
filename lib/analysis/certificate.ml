(* Schedule certificates and their scheduler-independent checker.  The
   checker sees only the input program and the certificate: it resolves
   each digest back to a program block, recomputes masks and depth
   estimates from the IR, and compares.  Nothing in this module (or
   library) references the scheduler. *)

module Block = Ph_pauli_ir.Block
module Program = Ph_pauli_ir.Program
module Pauli_string = Ph_pauli.Pauli_string
module Pauli_term = Ph_pauli.Pauli_term
module Qubit_set = Ph_pauli.Qubit_set
module Diag = Ph_lint.Diag
module Counter = Ph_perf.Counter

type layer_cert = {
  leader_digest : string;
  block_digests : string list;
  qubits_hex : string;
  est_depth : int;
}

type opt_acc = { blocks_in : int; groups : int; fused : int }

type t = {
  version : string;
  n_qubits : int;
  layers : layer_cert list;
  blocks : int;
  est_depth_total : int;
  cnot : int;
  single : int;
  depth : int;
  opt : opt_acc option;
}

let version = "phc-cert/1"

(* Canonical block text: terms lex-sorted (so schedulers' in-block term
   reorderings never change the digest), every float printed in its
   shortest round-tripping form. *)
let canonical_block_text b =
  let buf = Buffer.create 128 in
  Block.to_buffer ~param:`Value ~sorted:true buf b;
  Buffer.contents buf

let block_digest b = Digest.to_hex (Digest.string (canonical_block_text b))

(* Little-endian hex mask over the program's qubits, built from the
   member list — [Qubit_set] deliberately hides its words. *)
let hex_of_qubits ~n_qubits set =
  let bytes = Bytes.make ((n_qubits + 7) / 8) '\000' in
  Qubit_set.iter
    (fun q ->
      let i = q / 8 in
      Bytes.set bytes i
        (Char.chr (Char.code (Bytes.get bytes i) lor (1 lsl (q mod 8)))))
    set;
  let buf = Buffer.create (2 * Bytes.length bytes) in
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) bytes;
  Buffer.contents buf

(* Depth estimate of one block: each weight-w string costs a CNOT tree
   up then down plus the rotation, 2(w−1)+1; identity strings cost
   nothing.  Term-order independent, so recomputable from a
   digest-matched block. *)
let est_block b =
  List.fold_left
    (fun acc (t : Pauli_term.t) ->
      let w = Pauli_string.weight t.Pauli_term.str in
      if w = 0 then acc else acc + (2 * (w - 1)) + 1)
    0 (Block.terms b)

let layer_cert ~n_qubits blocks =
  let digests = List.map block_digest blocks in
  let mask = Qubit_set.create n_qubits in
  List.iter (fun b -> Qubit_set.union_into mask (Block.active_set b)) blocks;
  {
    leader_digest = (match digests with d :: _ -> d | [] -> "");
    block_digests = digests;
    qubits_hex = hex_of_qubits ~n_qubits mask;
    est_depth = List.fold_left (fun acc b -> max acc (est_block b)) 0 blocks;
  }

let build ~n_qubits ?opt ~cnot ~single ~depth layers =
  let layers = List.map (layer_cert ~n_qubits) layers in
  {
    version;
    n_qubits;
    layers;
    blocks = List.fold_left (fun acc l -> acc + List.length l.block_digests) 0 layers;
    est_depth_total = List.fold_left (fun acc l -> acc + l.est_depth) 0 layers;
    cnot;
    single;
    depth;
    opt;
  }

(* ---------- checker ---------- *)

let check ~program ?metrics (cert : t) =
  Counter.bump Counter.ana_cert_checks;
  let out = ref [] in
  let emit d = out := d :: !out in
  if cert.version <> version then
    emit
      (Diag.error ~code:"ANA010" Diag.Program_loc
         (Printf.sprintf "certificate version %S, expected %S" cert.version version));
  if cert.n_qubits <> Program.n_qubits program then
    emit
      (Diag.error ~code:"ANA010" Diag.Program_loc
         (Printf.sprintf "certificate is over %d qubits, program has %d"
            cert.n_qubits (Program.n_qubits program)));
  (* digest -> (program block, multiplicity) *)
  let prog_blocks = Hashtbl.create 64 in
  List.iter
    (fun b ->
      let d = block_digest b in
      match Hashtbl.find_opt prog_blocks d with
      | Some (block, n) -> Hashtbl.replace prog_blocks d (block, n + 1)
      | None -> Hashtbl.add prog_blocks d (b, 1))
    (Program.blocks program);
  (* multiset comparison: every certificate digest must consume one
     program occurrence, and every occurrence must be consumed *)
  let remaining = Hashtbl.copy prog_blocks in
  let cert_block_count = ref 0 in
  List.iter
    (fun l ->
      List.iter
        (fun d ->
          incr cert_block_count;
          match Hashtbl.find_opt remaining d with
          | Some (block, n) when n > 1 -> Hashtbl.replace remaining d (block, n - 1)
          | Some _ -> Hashtbl.remove remaining d
          | None ->
            emit
              (Diag.error ~code:"ANA011" Diag.Program_loc
                 (Printf.sprintf
                    "certificate block %s... does not appear in the program (or \
                     appears more often than scheduled)"
                    (String.sub d 0 (min 8 (String.length d))))))
        l.block_digests)
    cert.layers;
  (* report leftovers in program order, once per digest *)
  let reported = Hashtbl.create 8 in
  List.iter
    (fun b ->
      let d = block_digest b in
      if Hashtbl.mem remaining d && not (Hashtbl.mem reported d) then begin
        Hashtbl.add reported d ();
        let n = snd (Hashtbl.find remaining d) in
        emit
          (Diag.error ~code:"ANA011" Diag.Program_loc
             (Printf.sprintf "program block %s... missing from the certificate (x%d)"
                (String.sub d 0 (min 8 (String.length d)))
                n))
      end)
    (Program.blocks program);
  if cert.blocks <> !cert_block_count then
    emit
      (Diag.error ~code:"ANA012" Diag.Program_loc
         (Printf.sprintf "certificate claims %d blocks but lists %d" cert.blocks
            !cert_block_count));
  (* per-layer replay *)
  List.iteri
    (fun li (l : layer_cert) ->
      match l.block_digests with
      | [] ->
        emit (Diag.error ~code:"ANA012" (Diag.Layer_loc li) "empty layer record")
      | leader_d :: padding_ds ->
        if l.leader_digest <> leader_d then
          emit
            (Diag.error ~code:"ANA012" (Diag.Layer_loc li)
               "leader digest is not the first block of the layer");
        let resolve d =
          Option.map fst (Hashtbl.find_opt prog_blocks d)
        in
        (match resolve l.leader_digest with
        | None -> () (* already reported as ANA011 *)
        | Some leader ->
          let leader_set = Block.active_set leader in
          let mask = Qubit_set.copy leader_set in
          let all_resolved = ref true in
          List.iteri
            (fun pi d ->
              match resolve d with
              | None -> all_resolved := false
              | Some b ->
                let s = Block.active_set b in
                if not (Qubit_set.disjoint s leader_set) then
                  emit
                    (Diag.error ~code:"ANA013" (Diag.Layer_loc li)
                       (Printf.sprintf
                          "padding block %d shares active qubits with the layer \
                           leader"
                          (pi + 1)));
                Qubit_set.union_into mask s)
            padding_ds;
          if !all_resolved then begin
            let hex = hex_of_qubits ~n_qubits:(Program.n_qubits program) mask in
            if hex <> l.qubits_hex then
              emit
                (Diag.error ~code:"ANA012" (Diag.Layer_loc li)
                   "layer qubit mask differs from the replayed union of block \
                    supports");
            let est =
              List.fold_left
                (fun acc d ->
                  match resolve d with Some b -> max acc (est_block b) | None -> acc)
                0 l.block_digests
            in
            if est <> l.est_depth then
              emit
                (Diag.error ~code:"ANA012" (Diag.Layer_loc li)
                   (Printf.sprintf
                      "layer depth estimate %d differs from the replayed %d"
                      l.est_depth est))
          end))
    cert.layers;
  let est_total = List.fold_left (fun acc l -> acc + l.est_depth) 0 cert.layers in
  if est_total <> cert.est_depth_total then
    emit
      (Diag.error ~code:"ANA012" Diag.Program_loc
         (Printf.sprintf "certificate depth-estimate total %d, layers sum to %d"
            cert.est_depth_total est_total));
  (match metrics with
  | None -> ()
  | Some (cnot, single, depth) ->
    let acc name claimed actual =
      if claimed <> actual then
        emit
          (Diag.error ~code:"ANA014" Diag.Program_loc
             (Printf.sprintf
                "certificate accounts %d %s gates, compiled output has %d" claimed
                name actual))
    in
    acc "cnot" cert.cnot cnot;
    acc "single" cert.single single;
    acc "depth" cert.depth depth);
  (* Opt accounting: when the Phoenix optimizer ran, its commuting
     classes minus the blocks fusion removed must equal the post-opt
     block count the certificate was built over — unless everything
     cancelled, in which case the program is the single identity
     sentinel block. *)
  (match cert.opt with
  | None -> ()
  | Some o ->
    if o.blocks_in < 0 || o.groups < 0 || o.fused < 0 then
      emit
        (Diag.error ~code:"ANA015" Diag.Program_loc
           "optimizer accounting has a negative field")
    else if
      not
        (o.groups - o.fused = cert.blocks
        || (o.groups = o.fused && cert.blocks = 1))
    then
      emit
        (Diag.error ~code:"ANA015" Diag.Program_loc
           (Printf.sprintf
              "optimizer accounting %d groups - %d fused does not explain %d \
               certified blocks"
              o.groups o.fused cert.blocks)));
  List.rev !out

(* ---------- serialization ---------- *)

let layer_to_json (l : layer_cert) =
  Ph_json.Obj
    [
      "leader", Ph_json.String l.leader_digest;
      "blocks", Ph_json.List (List.map (fun d -> Ph_json.String d) l.block_digests);
      "qubits", Ph_json.String l.qubits_hex;
      "est_depth", Ph_json.Int l.est_depth;
    ]

let layer_of_json j =
  {
    leader_digest = Ph_json.to_str (Ph_json.get "leader" j);
    block_digests =
      List.map Ph_json.to_str (Ph_json.to_list (Ph_json.get "blocks" j));
    qubits_hex = Ph_json.to_str (Ph_json.get "qubits" j);
    est_depth = Ph_json.to_int (Ph_json.get "est_depth" j);
  }

let to_json (c : t) =
  Ph_json.Obj
    ([
       "version", Ph_json.String c.version;
       "n_qubits", Ph_json.Int c.n_qubits;
       "layers", Ph_json.List (List.map layer_to_json c.layers);
       "blocks", Ph_json.Int c.blocks;
       "est_depth_total", Ph_json.Int c.est_depth_total;
       "cnot", Ph_json.Int c.cnot;
       "single", Ph_json.Int c.single;
       "depth", Ph_json.Int c.depth;
     ]
    @
    (* field omitted entirely when the optimizer did not run, so
       pre-Phoenix certificates and their consumers round-trip
       unchanged *)
    match c.opt with
    | None -> []
    | Some o ->
      [
        ( "opt",
          Ph_json.Obj
            [
              "blocks_in", Ph_json.Int o.blocks_in;
              "groups", Ph_json.Int o.groups;
              "fused", Ph_json.Int o.fused;
            ] );
      ])

let of_json j =
  let int k = Ph_json.to_int (Ph_json.get k j) in
  {
    version = Ph_json.to_str (Ph_json.get "version" j);
    n_qubits = int "n_qubits";
    layers = List.map layer_of_json (Ph_json.to_list (Ph_json.get "layers" j));
    blocks = int "blocks";
    est_depth_total = int "est_depth_total";
    cnot = int "cnot";
    single = int "single";
    depth = int "depth";
    opt =
      Option.map
        (fun o ->
          let int k = Ph_json.to_int (Ph_json.get k o) in
          { blocks_in = int "blocks_in"; groups = int "groups"; fused = int "fused" })
        (Ph_json.member "opt" j);
  }
