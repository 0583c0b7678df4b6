open Experiments

type kind = Jit_steady | Interp_reference | Figure_slice

let names =
  [ ("jit-steady", Jit_steady); ("interp-reference", Interp_reference);
    ("figure-slice", Figure_slice) ]

let name k = fst (List.find (fun (_, k') -> k' = k) names)

type cell = {
  bench : Workloads.Suite.benchmark;
  variant : Common.variant;
  config : Engine.config;
  iterations : int;
}

let cell_label c =
  Printf.sprintf "%s %s %s" c.bench.Workloads.Suite.id
    (Arch.name c.config.Engine.arch)
    (Common.variant_name c.variant)

let program id =
  match Workloads.Suite.by_id id with
  | Some b -> b
  | None -> failwith ("perfbench: unknown program " ^ id)

(* The fig13/14 axis: SMI kernels on both base ISAs and on ARM64 with
   the jsldrsmi extension. *)
let jit_programs = [ "DP"; "HASH"; "AES2"; "MMUL"; "SPMV-CSR-SMI" ]
let jit_targets = [ (Arch.Arm64, Common.V_normal); (Arch.X64, Common.V_normal);
                    (Arch.Arm64, Common.V_smi_ext) ]

let interp_programs =
  [ "REGEX"; "REGDNA"; "STRSRCH"; "TAG"; "CSV"; "INI"; "STRCAT"; "B64";
    "RICH"; "TREE"; "LIST" ]

(* The ROADMAP reference slice, scaled so one pass of both figures
   takes seconds rather than a minute.  One job, the pool's default on
   two CPUs: at two jobs on a shared 2-vCPU host the wall time measures
   the host's share of the second vCPU. *)
let slice_programs = [ "DP"; "HASH"; "RICH"; "AES2"; "MMUL"; "SPMV-CSR-SMI" ]
let slice_figures = [ "fig1"; "fig7" ]
let slice_iterations = 10
let slice_reps = 2
let slice_jobs = 1

let programs = function
  | Jit_steady -> List.map program jit_programs
  | Interp_reference -> List.map program interp_programs
  | Figure_slice -> List.map program slice_programs

(* jit-steady: long enough that optimized code takes most of a cell's
   host time, short enough for several passes per run.
   interp-reference: engine bring-up is about a third of a cell, as in
   the reference runs that verification adds to every checked cell. *)
let iterations = function
  | Jit_steady -> 100
  | Interp_reference -> 150
  | Figure_slice -> slice_iterations

(* One engine seed per cell, from the workload seed and the cell's
   coordinates, so every cell sees its own GC jitter, tier-up jitter
   and ambient noise, and the same workload seed always gives the same
   cells. *)
let cell_seed ~seed parts =
  let d = Digest.string (String.concat "|" (string_of_int seed :: parts)) in
  1 + Char.code d.[0] + (Char.code d.[1] lsl 8) + (Char.code d.[2] lsl 16)

let make ~seed ~iterations bench arch variant =
  let s =
    cell_seed ~seed
      [ bench.Workloads.Suite.id; Arch.name arch; Common.variant_name variant ]
  in
  { bench; variant; config = Common.config_for ~arch ~seed:s variant; iterations }

let cells kind ~seed =
  let iterations = iterations kind in
  match kind with
  | Jit_steady ->
    List.concat_map
      (fun b ->
        List.map (fun (arch, v) -> make ~seed ~iterations b arch v) jit_targets)
      (programs kind)
  | Interp_reference ->
    List.map
      (fun b -> make ~seed ~iterations b Arch.Arm64 Common.V_interp_only)
      (programs kind)
  | Figure_slice -> []

let knobs kind =
  let common = [ ("VSPEC_BENCH_OUT", "off"); ("VSPEC_CACHE_DIR", "off") ] in
  match kind with
  | Jit_steady | Interp_reference -> ("VSPEC_JOBS", "1") :: common
  | Figure_slice ->
    [ ("VSPEC_JOBS", string_of_int slice_jobs);
      ("VSPEC_ITERS", string_of_int slice_iterations);
      ("VSPEC_REPS", string_of_int slice_reps);
      ("VSPEC_BENCH", String.concat "," slice_programs) ]
    @ common

(* fig1: the normal run of every program on both ISAs at seed 1.
   fig7: for every repetition seed, a normal and a calibrated-removal
   run on both ISAs. *)
let slice_cells () =
  let archs = [ Arch.X64; Arch.Arm64 ] in
  let benches = programs Figure_slice in
  let fig1 =
    List.concat_map
      (fun arch -> List.map (fun b -> (arch, 1, Some Common.V_normal, b)) benches)
      archs
  in
  let fig7 =
    List.concat_map
      (fun arch ->
        List.concat_map
          (fun b ->
            List.concat_map
              (fun rep ->
                [ (arch, rep + 1, Some Common.V_normal, b); (arch, rep + 1, None, b) ])
              (List.init slice_reps Fun.id))
          benches)
      archs
  in
  List.sort_uniq compare (fig1 @ fig7)

let reference ~iterations bench =
  Harness.run ~iterations
    ~config:(Common.config_for ~arch:Arch.Arm64 ~seed:1 Common.V_interp_only)
    bench

let checkable = function
  | Common.V_normal | Common.V_no_checks _ | Common.V_interp_only
  | Common.V_baseline | Common.V_smi_ext | Common.V_turboprop ->
    true
  | Common.V_no_branches | Common.V_trust_elements | Common.V_fuse_maps -> false
