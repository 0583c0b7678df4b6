(* The kernel mixes what the simulator does on the host: table
   dispatch, loads and stores over a working set larger than the L2
   cache, hashing, short-lived allocation and float arithmetic. *)

let nominal_s = 0.010
let words = 1 lsl 19
let data = Array.make words 0
let rounds = 300_000

let sample () =
  let t0 = Unix.gettimeofday () in
  let mask = words - 1 in
  let h = Hashtbl.create 4096 in
  let x = ref 12345 and acc = ref 0 and f = ref 1.0 and l = ref [] in
  for i = 1 to rounds do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = !x land mask in
    (match !x lsr 7 land 3 with
    | 0 -> data.(j) <- data.(j) + i
    | 1 -> acc := !acc + data.(j)
    | 2 -> Hashtbl.replace h (j land 4095) i
    | _ -> f := (!f *. 1.0000001) +. float_of_int (!acc land 7));
    l := (i, j) :: !l;
    if i land 63 = 0 then l := []
  done;
  let dt = Unix.gettimeofday () -. t0 in
  ignore (Sys.opaque_identity (!acc, !f, !l, h));
  dt

let scale ~before ~after ~wall ~user ~sys =
  let cal = (before +. after) /. 2.0 in
  let user' = if cal <= 0.0 then user else user *. nominal_s /. cal in
  (wall -. user +. user', sys +. user')
