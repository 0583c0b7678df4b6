(** Word-addressed simulated memory that costs only what a run touches.

    The JS heap and the machine model share one flat array of words.  A
    fresh engine reserves 8M words (64 MB) but a typical run touches a
    few thousand, so the array is a private copy-on-write mapping of
    [/dev/zero]: pages read as zero until first written, and only
    written pages take physical memory.  The mapping is released when
    the GC finalises the array. *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Kept concrete so that [.{}] and [Bigarray.Array1.unsafe_get] on a
    [t] compile to inline loads and stores. *)

val create : int -> t
(** [create n] is [n] words, all 0.  If [/dev/zero] cannot be opened or
    mapped it falls back to an ordinary bigarray filled with 0: the
    same contents at the cost of touching every page. *)
