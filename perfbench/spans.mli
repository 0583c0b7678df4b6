(** In-memory span recorder for the traced pass.

    A span is one call into a layer, recorded from outside the program:
    its name, the index of the span that encloses it, and its start and
    end on the wall clock and on the current domain's minor-heap
    allocation counter.  Spans stay in memory until {!clear}; nothing is
    written while a cell runs.  A span's self time is its duration minus
    the durations of its direct children. *)

type span = {
  name : string;
  parent : int;  (** index of the enclosing span; -1 at top level *)
  t0 : float;
  mutable t1 : float;
  w0 : float;  (** [Gc.minor_words] at entry *)
  mutable w1 : float;
}

type t

val create : unit -> t
val clear : t -> unit
val length : t -> int
val get : t -> int -> span

val enter : t -> string -> int
(** Open a span nested in the innermost open one; returns its index. *)

val leave : t -> int -> unit
(** Close the span [i], which must be the innermost open one. *)

val drop : t -> int -> unit
(** Discard the innermost span [i] when it has no children: its time
    then counts as the enclosing span's self time.  Used for hook calls
    that did no layer work. *)

val with_span : t -> string -> (unit -> 'a) -> 'a

val self_by_name : ?from:int -> t -> (string * (float * float)) list
(** [(name, (self seconds, self minor words))] summed over spans
    [from..length-1], sorted by name. *)

val write_csv : t -> string -> unit
(** [name,parent,start_s,end_s,minor_words] rows, one per span, times
    relative to the first span's start. *)
