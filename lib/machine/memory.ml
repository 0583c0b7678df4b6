type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let filled n : t =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill a 0;
  a

(* [map_file] grows a file that is shorter than the mapping with a
   one-byte [pwrite] at the end, so the descriptor must be writable;
   writes to /dev/zero are discarded.  The mapping outlives the
   descriptor. *)
let mapped n : t =
  let fd = Unix.openfile "/dev/zero" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Bigarray.array1_of_genarray
        (Unix.map_file fd Bigarray.int Bigarray.c_layout false [| n |]))

let create n = try mapped n with Unix.Unix_error _ -> filled n
