type t = {
  mask : int;
  counters : Bytes.t;  (* 2-bit saturating counters *)
  mutable ghr : int;
}

let create ?(bits = 15) () =
  let size = 1 lsl bits in
  { mask = size - 1; counters = Bytes.make size '\002'; ghr = 0 }

(* Per-branch hot path: one table load, one store, int-only arithmetic.
   The table size is a power of two so indexing is a pow2 mask (no mod),
   and the 2-bit saturation is written out with int compares — [min]/
   [max] here would go through the polymorphic compare primitives, a
   function call per retired branch.  The release build (dune-workspace)
   may inline it into the executors; where it does not, it takes and
   returns only immediates, so the call allocates nothing. *)
let[@inline] predict_and_update t ~pc ~taken =
  let idx = (pc lxor t.ghr) land t.mask in
  let c = Char.code (Bytes.unsafe_get t.counters idx) in
  let predicted_taken = c >= 2 in
  let c' =
    if taken then (if c >= 3 then 3 else c + 1)
    else if c <= 0 then 0
    else c - 1
  in
  Bytes.unsafe_set t.counters idx (Char.unsafe_chr c');
  t.ghr <- ((t.ghr lsl 1) lor (if taken then 1 else 0)) land t.mask;
  predicted_taken = taken

let reset t =
  Bytes.fill t.counters 0 (Bytes.length t.counters) '\002';
  t.ghr <- 0
