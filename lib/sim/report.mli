(** Plain-text rendering of experiment results (tables and ASCII
    series), in the spirit of the paper's figures. *)

val table : title:string -> header:string list -> string list list -> unit
(** Print an aligned table to stdout. *)

val series : title:string -> x_label:string -> y_label:string ->
  (float * float) list -> unit
(** Print an (x, y) series as a two-column table plus a bar per row. *)

val histogram :
  title:string -> edges:(float * float) array -> density:float array -> unit

val seconds : float -> string
val bytes : int -> string
(** Human-readable byte count ("12.3 KB"). *)
