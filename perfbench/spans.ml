type span = {
  name : string;
  parent : int;
  t0 : float;
  mutable t1 : float;
  w0 : float;
  mutable w1 : float;
}

type t = { mutable spans : span array; mutable n : int; mutable top : int }

let create () = { spans = [||]; n = 0; top = -1 }

let clear t =
  t.n <- 0;
  t.top <- -1

let length t = t.n
let get t i = t.spans.(i)

let enter t name =
  let s =
    { name; parent = t.top; t0 = Unix.gettimeofday (); t1 = Float.nan;
      w0 = Gc.minor_words (); w1 = Float.nan }
  in
  if t.n = Array.length t.spans then begin
    let bigger = Array.make (max 256 (2 * t.n)) s in
    Array.blit t.spans 0 bigger 0 t.n;
    t.spans <- bigger
  end;
  t.spans.(t.n) <- s;
  t.top <- t.n;
  t.n <- t.n + 1;
  t.top

let leave t i =
  let s = t.spans.(i) in
  s.t1 <- Unix.gettimeofday ();
  s.w1 <- Gc.minor_words ();
  t.top <- s.parent

let drop t i =
  if i <> t.n - 1 then invalid_arg "Spans.drop: span has children";
  t.top <- t.spans.(i).parent;
  t.n <- i

let with_span t name f =
  let i = enter t name in
  match f () with
  | v ->
    leave t i;
    v
  | exception e ->
    leave t i;
    raise e

let self_by_name ?(from = 0) t =
  let child_s = Array.make t.n 0.0 and child_w = Array.make t.n 0.0 in
  for i = from to t.n - 1 do
    let s = t.spans.(i) in
    if s.parent >= from then begin
      child_s.(s.parent) <- child_s.(s.parent) +. (s.t1 -. s.t0);
      child_w.(s.parent) <- child_w.(s.parent) +. (s.w1 -. s.w0)
    end
  done;
  let acc = Hashtbl.create 16 in
  for i = from to t.n - 1 do
    let s = t.spans.(i) in
    let ds = s.t1 -. s.t0 -. child_s.(i) and dw = s.w1 -. s.w0 -. child_w.(i) in
    let s0, w0 = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt acc s.name) in
    Hashtbl.replace acc s.name (s0 +. ds, w0 +. dw)
  done;
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])

let write_csv t path =
  let oc = open_out path in
  let base = if t.n > 0 then t.spans.(0).t0 else 0.0 in
  output_string oc "name,parent,start_s,end_s,minor_words\n";
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    Printf.fprintf oc "%s,%d,%.9f,%.9f,%.0f\n" s.name s.parent (s.t0 -. base)
      (s.t1 -. base) (s.w1 -. s.w0)
  done;
  close_out oc
