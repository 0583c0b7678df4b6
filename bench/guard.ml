(* Performance regression guard for the execution-engine benchmarks.

   Compares a freshly generated BENCH_exec.json against the committed
   one and fails (exit 1) when the decoded engine's median speedup on
   any committed bench drops by more than the tolerance — default 10%,
   overridable with VSPEC_PERF_TOLERANCE (a fraction, e.g. 0.15) —
   when the tracing-off overhead exceeds the committed limit, or when
   the decoded engine allocates more minor-heap words per simulated
   instruction on any bench than the committed limit.  Both files
   hold the median of interleaved decoded/direct rounds measured in
   one process, so the comparison is median against median and
   robust to host speed; allocation is a count of words, so it is
   exact and carries no tolerance.  Wired into `dune build @perf` /
   `make perf`.

   Usage: guard.exe --fresh FILE [--committed FILE] *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let tolerance () =
  match Sys.getenv_opt "VSPEC_PERF_TOLERANCE" with
  | None | Some "" -> 0.10
  | Some s -> (
    match float_of_string_opt s with
    | Some v when v >= 0.0 -> v
    | _ ->
      Printf.eprintf "[guard] bad VSPEC_PERF_TOLERANCE %S, using 0.10\n" s;
      0.10)

let bench_re =
  Str.regexp "{\"bench\": \"\\([^\"]+\\)\"[^}]*\"speedup\": \\([0-9.]+\\)"

(* [(bench, speedup)] in file order. *)
let benches text =
  let rec go pos acc =
    match Str.search_forward bench_re text pos with
    | exception Not_found -> List.rev acc
    | p ->
      let name = Str.matched_group 1 text in
      let speedup = float_of_string (Str.matched_group 2 text) in
      go (p + 1) ((name, speedup) :: acc)
  in
  go 0 []

let words_re =
  Str.regexp
    "{\"bench\": \"\\([^\"]+\\)\"[^}]*\"minor_words_per_insn\": \
     {\"direct\": [0-9.]+, \"decoded\": \\([0-9.]+\\)}"

(* [(bench, decoded minor words per insn)] in file order. *)
let decoded_words text =
  let rec go pos acc =
    match Str.search_forward words_re text pos with
    | exception Not_found -> List.rev acc
    | p ->
      let name = Str.matched_group 1 text in
      let words = float_of_string (Str.matched_group 2 text) in
      go (p + 1) ((name, words) :: acc)
  in
  go 0 []

let float_field name text =
  match
    Str.search_forward
      (Str.regexp ("\"" ^ Str.quote name ^ "\": \\([0-9.]+\\)"))
      text 0
  with
  | exception Not_found -> None
  | _ -> float_of_string_opt (Str.matched_group 1 text)

let () =
  let fresh_path = ref "" in
  let committed_path = ref "BENCH_exec.json" in
  let rec parse = function
    | "--fresh" :: p :: rest ->
      fresh_path := p;
      parse rest
    | "--committed" :: p :: rest ->
      committed_path := p;
      parse rest
    | [] -> ()
    | a :: _ ->
      Printf.eprintf "[guard] unknown argument %S\n" a;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !fresh_path = "" then begin
    Printf.eprintf "usage: guard.exe --fresh FILE [--committed FILE]\n";
    exit 2
  end;
  let fresh = read_file !fresh_path in
  let committed = read_file !committed_path in
  let tol = tolerance () in
  let fresh_benches = benches fresh in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun (name, committed_speedup) ->
      match List.assoc_opt name fresh_benches with
      | None -> fail "bench %S missing from fresh run" name
      | Some fresh_speedup ->
        let floor = committed_speedup *. (1.0 -. tol) in
        Printf.printf "[guard] %-8s speedup %.3fx (committed %.3fx, floor %.3fx)%s\n"
          name fresh_speedup committed_speedup floor
          (if fresh_speedup < floor then "  << REGRESSION" else "");
        if fresh_speedup < floor then
          fail "bench %S speedup regressed: %.3fx < %.3fx (committed %.3fx - %.0f%%)"
            name fresh_speedup floor committed_speedup (100.0 *. tol))
    (benches committed);
  (match
     ( float_field "trace_overhead_limit_pct" committed,
       float_field "trace_overhead_pct" fresh )
   with
  | Some limit, Some overhead ->
    Printf.printf "[guard] tracing overhead %.2f%% (limit %.1f%%)%s\n" overhead
      limit
      (if overhead > limit then "  << REGRESSION" else "");
    if overhead > limit then
      fail "tracing overhead %.2f%% exceeds the %.1f%% limit" overhead limit
  | None, _ ->
    Printf.printf "[guard] committed file has no tracing limit; skipping\n"
  | _, None -> fail "fresh run reports no trace_overhead_pct");
  (match float_field "decoded_minor_words_limit" committed with
  | None ->
    Printf.printf "[guard] committed file has no allocation limit; skipping\n"
  | Some limit ->
    let fresh_words = decoded_words fresh in
    List.iter
      (fun (name, _) ->
        match List.assoc_opt name fresh_words with
        | None -> fail "bench %S reports no minor_words_per_insn" name
        | Some w ->
          Printf.printf "[guard] %-8s decoded %.4f minor words/insn (limit %.2f)%s\n"
            name w limit
            (if w > limit then "  << REGRESSION" else "");
          if w > limit then
            fail "bench %S allocates %.4f minor words/insn > %.2f" name w
              limit)
      fresh_benches);
  match !failures with
  | [] -> Printf.printf "[guard] OK (tolerance %.0f%%)\n" (100.0 *. tol)
  | fs ->
    List.iter (fun m -> Printf.eprintf "[guard] FAIL: %s\n" m) (List.rev fs);
    exit 1
