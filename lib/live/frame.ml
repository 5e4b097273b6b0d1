module Writer = Lo_codec.Writer
module Reader = Lo_codec.Reader

let version = 1
let max_body = 16 * 1024 * 1024

let varint_len v =
  let rec go v n = if v < 0x80 then n else go (v lsr 7) (n + 1) in
  go v 1

let encode ~src ~tag payload =
  (* The body length is computable up front, so a frame is one
     straight-line append. *)
  let body =
    1 + varint_len src
    + varint_len (String.length tag)
    + String.length tag
    + varint_len (String.length payload)
    + String.length payload
  in
  let w = Writer.create ~initial_size:(4 + body) () in
  Writer.u32 w body;
  Writer.u8 w version;
  Writer.varint w src;
  Writer.bytes w tag;
  Writer.bytes w payload;
  Writer.contents w

module Decoder = struct
  (* A flat byte accumulator with a consumed prefix. Flat storage (vs a
     Buffer) lets [next_view] hand out reader views directly over the
     receive bytes — no per-frame body copy on the hot path. The dead
     prefix is reclaimed lazily: whenever an incoming chunk would force
     a grow, we first slide the live suffix down, so long sessions stay
     O(live bytes) without per-frame blits. *)
  type t = { mutable data : Bytes.t; mutable len : int; mutable pos : int }

  let create () = { data = Bytes.create 4096; len = 0; pos = 0 }
  let buffered t = t.len - t.pos

  let compact t =
    if t.pos > 0 then begin
      let live = t.len - t.pos in
      Bytes.blit t.data t.pos t.data 0 live;
      t.len <- live;
      t.pos <- 0
    end

  let ensure t extra =
    if t.len + extra > Bytes.length t.data then begin
      compact t;
      if t.len + extra > Bytes.length t.data then begin
        let cap = ref (max 4096 (2 * Bytes.length t.data)) in
        while t.len + extra > !cap do
          cap := !cap * 2
        done;
        let fresh = Bytes.create !cap in
        Bytes.blit t.data 0 fresh 0 t.len;
        t.data <- fresh
      end
    end

  let feed_bytes t chunk off len =
    if off < 0 || len < 0 || off + len > Bytes.length chunk then
      invalid_arg "Frame.Decoder.feed_bytes";
    ensure t len;
    Bytes.blit chunk off t.data t.len len;
    t.len <- t.len + len

  (* Body length of the frame at [pos]; [None] while incomplete. *)
  let header t =
    if buffered t < 4 then None
    else begin
      let b i = Char.code (Bytes.get t.data (t.pos + i)) in
      let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
      if len > max_body then
        raise
          (Reader.Malformed (Printf.sprintf "frame body length %d > max" len));
      if buffered t < 4 + len then None else Some len
    end

  type view = {
    v_version : int;
    v_src : int;
    v_tag : string;
    v_payload : Reader.t;
  }

  let next_view t =
    match header t with
    | None -> None
    | Some len -> (
        let start = t.pos + 4 in
        t.pos <- t.pos + 4 + len;
        (* [unsafe_to_string] is sound here: readers never mutate, and
           the view's documented lifetime ends before the decoder next
           touches [data] (feed_bytes and next_view both invalidate). *)
        match
          let r =
            Reader.of_substring (Bytes.unsafe_to_string t.data) ~pos:start ~len
          in
          let v_version = Reader.u8 r in
          let v_src = Reader.varint r in
          let v_tag = Reader.bytes r in
          let plen = Reader.varint r in
          let v_payload = Reader.sub_view r plen in
          Reader.expect_end r;
          { v_version; v_src; v_tag; v_payload }
        with
        | v -> Some v
        | exception (Reader.Malformed _ as e) -> raise e
        | exception _ -> raise (Reader.Malformed "frame body failed to decode"))
end
