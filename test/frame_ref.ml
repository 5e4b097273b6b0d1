(* Reference parser for the live wire framing, for tests: a whole byte
   stream at once through [Lo_codec.Reader], copying every payload out.
   It shares no code with [Lo_live.Frame], whose streaming decoder
   (reader views into a receive buffer, arbitrary chunking) the tests
   hold to it. Layout: u32 body length, then the body: u8 version,
   varint sender, length-prefixed tag, length-prefixed payload. *)

module Reader = Lo_codec.Reader

type frame = { version : int; src : int; tag : string; payload : string }

(* 16 MiB, the largest body the framing allows. *)
let max_body = 1 lsl 24

(* The complete frames of [stream], in order; an incomplete tail is
   left unparsed. Raises [Reader.Malformed] at an oversized length
   prefix or a body that does not parse exactly. *)
let parse stream =
  let r = Reader.of_string stream in
  let rec go acc =
    if Reader.remaining r < 4 then List.rev acc
    else begin
      let len = Reader.u32 r in
      if len > max_body then raise (Reader.Malformed "frame body too long");
      if Reader.remaining r < len then List.rev acc
      else begin
        let body = Reader.of_string (Reader.fixed r len) in
        let version = Reader.u8 body in
        let src = Reader.varint body in
        let tag = Reader.bytes body in
        let payload = Reader.bytes body in
        Reader.expect_end body;
        go ({ version; src; tag; payload } :: acc)
      end
    end
  in
  go []
