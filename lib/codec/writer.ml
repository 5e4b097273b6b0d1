type t = Buffer.t

let create ?(initial_size = 64) () = Buffer.create initial_size
let length = Buffer.length

let u8 t v =
  if v < 0 || v > 0xFF then invalid_arg "Writer.u8: out of range";
  Buffer.add_char t (Char.chr v)

let u16 t v =
  if v < 0 || v > 0xFFFF then invalid_arg "Writer.u16: out of range";
  Buffer.add_char t (Char.chr (v lsr 8));
  Buffer.add_char t (Char.chr (v land 0xFF))

let u32 t v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Writer.u32: out of range";
  Buffer.add_char t (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char t (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char t (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char t (Char.chr (v land 0xFF))

let u64 t v =
  if v < 0 then invalid_arg "Writer.u64: negative";
  for i = 7 downto 0 do
    Buffer.add_char t (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let rec varint t v =
  if v < 0 then invalid_arg "Writer.varint: negative"
  else if v < 0x80 then Buffer.add_char t (Char.chr v)
  else begin
    Buffer.add_char t (Char.chr (0x80 lor (v land 0x7F)));
    varint t (v lsr 7)
  end

let fixed t s = Buffer.add_string t s

let bytes t s =
  varint t (String.length s);
  Buffer.add_string t s

let list t encode items =
  varint t (List.length items);
  List.iter encode items

let contents = Buffer.contents
let reset = Buffer.clear
