exception Fail of string

let fail fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

(* Conservative charset so quoting/escaping is never needed: the parser
   below depends on values containing no quotes, commas or brackets. *)
let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | ':' | '_' | '-' | '.' | '/'
      | ' ' ->
          c
      | _ -> '_')
    s

let line { Trace.at; ev } =
  let b = Buffer.create 96 in
  Buffer.add_string b (Printf.sprintf "{\"t\":%.6f,\"ev\":\"%s\"" at (Event.kind ev));
  let int k v = Buffer.add_string b (Printf.sprintf ",\"%s\":%d" k v) in
  let str k v = Buffer.add_string b (Printf.sprintf ",\"%s\":\"%s\"" k (sanitize v)) in
  let bool k v = Buffer.add_string b (Printf.sprintf ",\"%s\":%b" k v) in
  let ints k vs =
    Buffer.add_string b (Printf.sprintf ",\"%s\":[" k);
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (string_of_int v))
      vs;
    Buffer.add_char b ']'
  in
  let wire src dst tag bytes =
    int "src" src;
    int "dst" dst;
    str "tag" tag;
    int "bytes" bytes
  in
  (match ev with
  | Event.Send { src; dst; tag; bytes } -> wire src dst tag bytes
  | Event.Deliver { src; dst; tag; bytes } -> wire src dst tag bytes
  | Event.Drop { src; dst; tag; bytes; reason } ->
      wire src dst tag bytes;
      str "reason" (Event.drop_reason_label reason)
  | Event.Span_begin { node; key } ->
      int "node" node;
      str "key" key
  | Event.Span_end { node; key; ok } ->
      int "node" node;
      str "key" key;
      bool "ok" ok
  | Event.Commit_append { node; seq; count; ids } ->
      int "node" node;
      int "seq" seq;
      int "count" count;
      ints "ids" ids
  | Event.Suspect { node; peer } | Event.Clear { node; peer }
  | Event.Expose { node; peer } ->
      int "node" node;
      int "peer" peer
  | Event.Violation { node; peer; kind } ->
      int "node" node;
      int "peer" peer;
      str "kind" kind
  | Event.Block_accept { node; creator; height; bundles; omitted; appendix } ->
      int "node" node;
      int "creator" creator;
      int "height" height;
      Buffer.add_string b ",\"bundles\":[";
      List.iteri
        (fun i (seq, ids) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '[';
          Buffer.add_string b (string_of_int seq);
          List.iter
            (fun id -> Buffer.add_string b ("," ^ string_of_int id))
            ids;
          Buffer.add_char b ']')
        bundles;
      Buffer.add_char b ']';
      ints "omitted" omitted;
      int "appendix" appendix
  | Event.Crash { node } | Event.Restart { node } -> int "node" node
  | Event.Conn_down { node; peer; reason } ->
      int "node" node;
      int "peer" peer;
      str "reason" reason
  | Event.Conn_up { node; peer; attempts } ->
      int "node" node;
      int "peer" peer;
      int "attempts" attempts
  | Event.Unknown_tag { node; src; tag } | Event.Malformed { node; src; tag } ->
      int "node" node;
      int "src" src;
      str "tag" tag
  | Event.Submit { node; id } ->
      int "node" node;
      int "id" id);
  Buffer.add_char b '}';
  Buffer.contents b

let add_line b e =
  Buffer.add_string b (line e);
  Buffer.add_char b '\n'

let to_string trace =
  let b = Buffer.create 4096 in
  List.iter (add_line b) (Trace.events trace);
  Buffer.contents b

(* --- parsing --- *)

(* Top-level field split: commas at bracket depth 0. Values never
   contain quotes or commas (see [sanitize]), so no escape handling. *)
let split_fields s =
  let n = String.length s in
  if n < 2 || s.[0] <> '{' || s.[n - 1] <> '}' then fail "not an object";
  let body = String.sub s 1 (n - 2) in
  let parts = ref [] in
  let start = ref 0 in
  let depth = ref 0 in
  String.iteri
    (fun i c ->
      match c with
      | '[' -> incr depth
      | ']' -> decr depth
      | ',' when !depth = 0 ->
          parts := String.sub body !start (i - !start) :: !parts;
          start := i + 1
      | _ -> ())
    body;
  if String.length body > !start then
    parts := String.sub body !start (String.length body - !start) :: !parts
  else if String.length body > 0 then fail "trailing comma";
  List.rev_map
    (fun part ->
      match String.index_opt part ':' with
      | None -> fail "field without colon: %s" part
      | Some _ ->
          let part = String.trim part in
          if String.length part < 4 || part.[0] <> '"' then
            fail "bad field key: %s" part;
          let close =
            match String.index_from_opt part 1 '"' with
            | Some i -> i
            | None -> fail "unterminated key: %s" part
          in
          let key = String.sub part 1 (close - 1) in
          let rest =
            String.trim
              (String.sub part (close + 1) (String.length part - close - 1))
          in
          if rest = "" || rest.[0] <> ':' then
            fail "missing colon after key %s" key;
          (key, String.trim (String.sub rest 1 (String.length rest - 1))))
    !parts
  |> List.rev

let field fields k =
  match List.assoc_opt k fields with
  | Some v -> v
  | None -> fail "missing field %s" k

let as_int v = try int_of_string v with _ -> fail "bad int: %s" v
let as_float v = try float_of_string v with _ -> fail "bad float: %s" v

let as_bool = function
  | "true" -> true
  | "false" -> false
  | v -> fail "bad bool: %s" v

let as_string v =
  let n = String.length v in
  if n < 2 || v.[0] <> '"' || v.[n - 1] <> '"' then fail "bad string: %s" v
  else String.sub v 1 (n - 2)

let strip_brackets v =
  let n = String.length v in
  if n < 2 || v.[0] <> '[' || v.[n - 1] <> ']' then fail "bad array: %s" v
  else String.sub v 1 (n - 2)

let as_int_list v =
  let body = strip_brackets v in
  if String.equal body "" then []
  else List.map (fun p -> as_int (String.trim p)) (String.split_on_char ',' body)

let as_bundles v =
  let body = strip_brackets v in
  if String.equal body "" then []
  else begin
    (* split on depth-0 commas within the outer array *)
    let parts = ref [] in
    let start = ref 0 in
    let depth = ref 0 in
    String.iteri
      (fun i c ->
        match c with
        | '[' -> incr depth
        | ']' -> decr depth
        | ',' when !depth = 0 ->
            parts := String.sub body !start (i - !start) :: !parts;
            start := i + 1
        | _ -> ())
      body;
    parts := String.sub body !start (String.length body - !start) :: !parts;
    List.rev_map
      (fun p ->
        match as_int_list (String.trim p) with
        | seq :: ids -> (seq, ids)
        | [] -> fail "empty bundle")
      !parts
  end

let parse_line s =
  try
    let fields = split_fields (String.trim s) in
    let at = as_float (field fields "t") in
    let int k = as_int (field fields k) in
    let str k = as_string (field fields k) in
    let wire () = (int "src", int "dst", str "tag", int "bytes") in
    let ev =
      match as_string (field fields "ev") with
      | "send" ->
          let src, dst, tag, bytes = wire () in
          Event.Send { src; dst; tag; bytes }
      | "deliver" ->
          let src, dst, tag, bytes = wire () in
          Event.Deliver { src; dst; tag; bytes }
      | "drop" ->
          let src, dst, tag, bytes = wire () in
          let reason =
            match Event.drop_reason_of_label (str "reason") with
            | Some r -> r
            | None -> fail "bad drop reason"
          in
          Event.Drop { src; dst; tag; bytes; reason }
      | "span_begin" -> Event.Span_begin { node = int "node"; key = str "key" }
      | "span_end" ->
          Event.Span_end
            { node = int "node"; key = str "key"; ok = as_bool (field fields "ok") }
      | "commit" ->
          Event.Commit_append
            {
              node = int "node";
              seq = int "seq";
              count = int "count";
              ids = as_int_list (field fields "ids");
            }
      | "suspect" -> Event.Suspect { node = int "node"; peer = int "peer" }
      | "clear" -> Event.Clear { node = int "node"; peer = int "peer" }
      | "expose" -> Event.Expose { node = int "node"; peer = int "peer" }
      | "violation" ->
          Event.Violation
            { node = int "node"; peer = int "peer"; kind = str "kind" }
      | "block" ->
          Event.Block_accept
            {
              node = int "node";
              creator = int "creator";
              height = int "height";
              bundles = as_bundles (field fields "bundles");
              omitted = as_int_list (field fields "omitted");
              appendix = int "appendix";
            }
      | "crash" -> Event.Crash { node = int "node" }
      | "restart" -> Event.Restart { node = int "node" }
      | "conn_down" ->
          Event.Conn_down
            { node = int "node"; peer = int "peer"; reason = str "reason" }
      | "conn_up" ->
          Event.Conn_up
            { node = int "node"; peer = int "peer"; attempts = int "attempts" }
      | "unknown_tag" ->
          Event.Unknown_tag
            { node = int "node"; src = int "src"; tag = str "tag" }
      | "malformed" ->
          Event.Malformed { node = int "node"; src = int "src"; tag = str "tag" }
      | "submit" -> Event.Submit { node = int "node"; id = int "id" }
      | k -> fail "unknown event kind %s" k
    in
    Ok { Trace.at; ev }
  with Fail msg -> Error msg

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | l :: rest ->
        if String.equal (String.trim l) "" then go acc (lineno + 1) rest
        else begin
          match parse_line l with
          | Ok e -> go (e :: acc) (lineno + 1) rest
          | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
        end
  in
  go [] 1 lines
