(** Minimal JSON values, emission and parsing for the observability layer
    (metrics files, trace exports, the schema shape checker). Emission
    refuses non-finite floats, so a leaked [infinity]/[neg_infinity]
    sentinel raises instead of producing invalid JSON. The parser accepts
    a strict RFC 8259 subset (no comments, no trailing commas). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** must be finite when emitted *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_buffer : ?pretty:bool -> Buffer.t -> t -> unit

val to_string : ?pretty:bool -> t -> string
(** Compact by default; [~pretty:true] indents with two spaces.
    @raise Invalid_argument on a non-finite [Float]. *)

exception Parse_error of string

val parse : string -> t
(** @raise Parse_error on malformed input. *)

val member : string -> t -> t option
(** [member k (Obj kvs)] is the value bound to [k]; [None] for missing
    keys and non-objects. *)

val to_float_opt : t -> float option
(** Numeric value of an [Int] or [Float] node. *)

(** {1 Shapes}

    One declarative checker for every JSON artifact the project emits:
    each schema is a {!shape} value defined once, in the module that
    emits the document. Errors name the path of the offending value,
    e.g. ["swarm[2].outcome.runs: expected an integer"]. *)

type shape

type field
(** A member of an {!obj} shape. *)

val int : shape
val int_min : int -> shape
(** An integer no smaller than the bound. *)

val number : shape
(** An [Int] or a [Float]. *)

val finite : shape
(** An [Int] or a finite [Float] (NaN and ±∞ rejected). *)

val string : shape
val enum : string list -> shape
(** A string from the list. *)

val bool : shape
val null_or : shape -> shape
val list : shape -> shape
(** An array whose every element has the shape. *)

val tuple : shape list -> shape
(** An array of exactly these element shapes, in order. *)

val req : string -> shape -> field
val opt : string -> shape -> field
(** Required and optional members. *)

val obj : field list -> shape
(** An object with these members; members not listed are ignored. *)

val sized : list:string -> count:string -> shape -> shape
(** [sized ~list ~count s] is [s] plus the one rule that compares
    members: the array member [list] has as many entries as the integer
    member [count] (e.g. one [completed] count per process [n]). *)

val check : shape -> t -> (unit, string) result
