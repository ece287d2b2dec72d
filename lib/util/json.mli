(** Minimal JSON values: enough to build the telemetry exports (Chrome
    trace, run reports, BENCH snapshots) and to parse them back for
    validation — no external dependency — and {!read_sections}, the
    JSONL reader behind the timeline and power-meter logs.

    Printing is deterministic: object fields keep their construction
    order, floats render with ["%.17g"] (round-trip exact), and there is
    no whitespace beyond what {!to_string} is asked for.  The parser
    accepts any RFC 8259 document (nesting, escapes, exponents); numbers
    that are integral and fit in an OCaml [int] parse as {!Int}, the
    rest as {!Float}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Compact by default; [~indent:2] pretty-prints with that step. *)

val to_channel : ?indent:int -> out_channel -> t -> unit

val parse_string : string -> (t, string) result
(** Whole-document parse (trailing garbage is an error). *)

(** {1 Accessors} — total lookups for validators and renderers. *)

val member : string -> t -> t option
(** Field of an {!Obj} ([None] on anything else or a missing key). *)

val to_list : t -> t list option
val to_float : t -> float option
(** Accepts {!Int} too (the parser may have narrowed a whole float). *)

val to_int : t -> int option
val to_str : t -> string option
val to_bool : t -> bool option

(** {1 Typed fields} — the one field reader of the document decoders. *)

type 'a field = at:string -> string -> t -> ('a option, string) result
(** [read ~at key j]: field [key] of [j], [Ok None] when absent,
    [Error "<at><key>: expected <type>"] when of another type ([at] is
    [j]'s path, e.g. ["schemes[1]."]).  [number] accepts {!Int} too;
    [obj] returns the {!Obj} itself. *)

val number : float field
val integer : int field
val text : string field
val boolean : bool field
val array : t list field
val obj : t field

val required : 'a field -> at:string -> string -> t -> ('a, string) result
(** The field read by [read], an absent one being the error
    ["<at><key>: missing"]. *)

val read_sections :
  header:(t -> ('h, string) result option) ->
  row:('h option -> t -> ('r, string) result) ->
  in_channel ->
  (('h option * 'r list) list, string) result
(** Split a JSONL stream into typed sections.  A line [header] claims
    opens a section; any other non-blank line is decoded by [row] under
    the current header ([None] before the first).  The first unparsable
    line or decoding error ends the read as ["line N: <why>"]. *)

val schema_outline : t -> string list
(** Sorted, de-duplicated key paths with a one-letter type tag, e.g.
    [".schemes[].energy_j:n"] — array elements are merged under the same
    ["[]"] path.  The golden schema check compares these lines, so a
    report can change every value (timings!) without touching the
    outline, while adding/removing/re-typing a field fails the check. *)
