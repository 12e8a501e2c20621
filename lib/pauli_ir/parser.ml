open Ph_pauli

exception Parse_error of string

(* Every failure carries the source position (1-based line / column) of
   the offending token or character, so errors on multi-block files are
   actionable. *)
type pos = { line : int; col : int }

let fail_at pos fmt =
  Printf.ksprintf
    (fun s ->
      raise (Parse_error (Printf.sprintf "line %d, column %d: %s" pos.line pos.col s)))
    fmt

type token =
  | Lbrace
  | Rbrace
  | Lparen
  | Rparen
  | Comma
  | Semi
  | Num of float
  | Ident of string

let token_desc = function
  | Lbrace -> "'{'"
  | Rbrace -> "'}'"
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Comma -> "','"
  | Semi -> "';'"
  | Num _ -> "number"
  | Ident s -> Printf.sprintf "identifier %S" s

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let is_num_char c = (c >= '0' && c <= '9') || c = '.' || c = 'e' || c = 'E' || c = '+' || c = '-'

(* Returns the token list with positions, plus the end-of-input position
   (reported on truncated programs). *)
let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let line = ref 1 in
  let bol = ref 0 in
  let pos_here () = { line = !line; col = !i - !bol + 1 } in
  let push t p = toks := (t, p) :: !toks in
  while !i < n do
    let c = src.[!i] in
    let p = pos_here () in
    if c = '\n' then begin
      incr i;
      incr line;
      bol := !i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '{' then (push Lbrace p; incr i)
    else if c = '}' then (push Rbrace p; incr i)
    else if c = '(' then (push Lparen p; incr i)
    else if c = ')' then (push Rparen p; incr i)
    else if c = ',' then (push Comma p; incr i)
    else if c = ';' then (push Semi p; incr i)
    else if (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' then begin
      let start = !i in
      incr i;
      while !i < n && is_num_char src.[!i] do
        incr i
      done;
      let text = String.sub src start (!i - start) in
      match float_of_string_opt text with
      | Some f -> push (Num f) p
      | None -> fail_at p "bad number %S" text
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      push (Ident (String.sub src start (!i - start))) p
    end
    else fail_at p "unexpected character %C" c
  done;
  List.rev !toks, pos_here ()

let is_pauli_word s =
  s <> "" && String.for_all (fun c -> c = 'I' || c = 'X' || c = 'Y' || c = 'Z') s

let parse ?(params = []) ?default src =
  let toks, eof_pos = tokenize src in
  let toks = ref toks in
  let next () =
    match !toks with
    | [] -> fail_at eof_pos "unexpected end of input"
    | t :: rest ->
      toks := rest;
      t
  in
  let peek () = match !toks with [] -> None | t :: _ -> Some t in
  let peek_pos () = match !toks with [] -> eof_pos | (_, p) :: _ -> p in
  let lookup pos name =
    match List.assoc_opt name params, default with
    | Some v, _ -> v
    | None, Some d -> d
    | None, None -> fail_at pos "unbound parameter %S" name
  in
  let expect t what =
    let got, pos = next () in
    if got <> t then fail_at pos "expected %s, got %s" what (token_desc got)
  in
  let parse_pair () =
    expect Lparen "'('";
    let str =
      match next () with
      | Ident s, _ when is_pauli_word s -> Pauli_string.of_string s
      | Ident s, pos -> fail_at pos "expected Pauli string, got %S" s
      | got, pos -> fail_at pos "expected Pauli string, got %s" (token_desc got)
    in
    expect Comma "','";
    let w =
      match next () with
      | Num f, _ -> f
      | got, pos -> fail_at pos "expected weight, got %s" (token_desc got)
    in
    expect Rparen "')'";
    Pauli_term.make str w
  in
  let parse_block () =
    let open_pos = peek_pos () in
    expect Lbrace "'{'";
    let rec items acc =
      match peek () with
      | Some (Lparen, _) ->
        let t = parse_pair () in
        (match peek () with
        | Some (Comma, _) ->
          ignore (next ());
          items (t :: acc)
        | Some (got, pos) -> fail_at pos "expected ',' after term, got %s" (token_desc got)
        | None -> fail_at eof_pos "expected ',' after term")
      | Some (Num f, _) ->
        ignore (next ());
        List.rev acc, Block.fixed f
      | Some (Ident name, pos) ->
        ignore (next ());
        List.rev acc, Block.symbolic name (lookup pos name)
      | Some (got, pos) -> fail_at pos "expected term or parameter, got %s" (token_desc got)
      | None -> fail_at eof_pos "expected term or parameter"
    in
    let terms, param = items [] in
    expect Rbrace "'}'";
    if terms = [] then fail_at open_pos "empty block";
    Block.make terms param
  in
  let rec parse_blocks acc =
    match peek () with
    | None -> List.rev acc
    | Some (Lbrace, _) ->
      let b = parse_block () in
      (match peek () with
      | Some (Semi, _) ->
        ignore (next ());
        parse_blocks (b :: acc)
      | None -> List.rev (b :: acc)
      | Some (got, pos) ->
        fail_at pos "expected ';' between blocks, got %s" (token_desc got))
    | Some (got, pos) -> fail_at pos "expected '{', got %s" (token_desc got)
  in
  match parse_blocks [] with
  | [] -> fail_at eof_pos "empty program"
  | first :: _ as blocks -> Program.make (Block.n_qubits first) blocks

let to_text prog =
  let buf = Buffer.create 256 in
  List.iter
    (fun b ->
      Block.to_buffer ~param:`Label ~sorted:false buf b;
      Buffer.add_string buf ";\n")
    (Program.blocks prog);
  Buffer.contents buf
