(* Bit-identity of the pre-decoded threaded-code engine against the
   direct interpreter: whole harness results (checksums, cycle counts,
   every counter, PC-sample attributions) must digest equal for the
   fig7-style cell axes — both ISAs, the SMI extension, check removal,
   and a benchmark that actually deoptimizes. *)

(* The on-disk cache must not serve one engine's results to the other. *)
let () = Unix.putenv "VSPEC_CACHE_DIR" "off"

let iters = 25

let digest (r : Experiments.Harness.result) =
  Digest.to_hex (Digest.string (Marshal.to_string r []))

(* Always deopts once mid-run: iteration 8 overflows an int32 add. *)
let deopting_bench =
  {
    Workloads.Suite.id = "synthetic-overflow";
    category = Workloads.Suite.Math;
    description = "deopts on arithmetic overflow mid-run";
    source =
      {|
var phase = 0;
function f(x) { return x + x; }
function bench() {
  var s = 0;
  for (var i = 0; i < 20; i++) s = (s + f(i)) % 100003;
  phase = phase + 1;
  if (phase == 8) s = s + f(900000000) % 7;
  return s % 100003;
}
|};
  }

let run_with engine ~arch ~seed variant b =
  Exec.set_engine (Some engine);
  Fun.protect
    ~finally:(fun () -> Exec.set_engine None)
    (fun () ->
      let config = Experiments.Common.config_for ~arch ~seed variant in
      Experiments.Harness.run ~iterations:iters ~config b)

let check_cell ?(expect_deopts = false) ~arch ~seed variant b =
  let label =
    Printf.sprintf "%s@%s/%s" b.Workloads.Suite.id (Arch.name arch)
      (Experiments.Common.variant_name variant)
  in
  let direct = run_with Exec.Direct ~arch ~seed variant b in
  let decoded = run_with Exec.Decoded ~arch ~seed variant b in
  Alcotest.(check string)
    (label ^ ": direct and decoded results digest-equal")
    (digest direct) (digest decoded);
  Alcotest.(check (option string)) (label ^ ": no error") None
    decoded.Experiments.Harness.error;
  if expect_deopts then
    Alcotest.(check bool) (label ^ ": benchmark deopted") true
      (decoded.Experiments.Harness.counters.Perf.deopt_events > 0)

let bench id = Option.get (Workloads.Suite.by_id id)

let test_normal_cells () =
  List.iter
    (fun arch ->
      List.iter
        (fun id ->
          check_cell ~arch ~seed:1 Experiments.Common.V_normal (bench id))
        [ "DP"; "HASH" ])
    [ Arch.X64; Arch.Arm64 ]

let test_deopting_cells () =
  List.iter
    (fun arch ->
      check_cell ~expect_deopts:true ~arch ~seed:1 Experiments.Common.V_normal
        deopting_bench)
    [ Arch.X64; Arch.Arm64 ]

let test_removal_cells () =
  (* The fig7 removal leg: checks of a group disabled at codegen. *)
  List.iter
    (fun arch ->
      check_cell ~arch ~seed:2
        (Experiments.Common.V_no_checks [ Insn.G_boundary ])
        (bench "DP"))
    [ Arch.X64; Arch.Arm64 ]

let test_smi_ext_cell () =
  (* Arm64_smi_ext exercises the [jsldrsmi] micro-op. *)
  check_cell ~arch:Arch.Arm64 ~seed:1 Experiments.Common.V_smi_ext
    (bench "SPMV-CSR-SMI");
  check_cell ~expect_deopts:true ~arch:Arch.Arm64 ~seed:1
    Experiments.Common.V_smi_ext deopting_bench

let test_injection_transparent () =
  (* Transient fault injection at a fixed seed, absorbed by retries,
     must leave results bit-identical to a clean run: the injector
     lives entirely outside the simulated machine. *)
  let digest_of () =
    Experiments.Common.clear_memo ();
    digest
      (Experiments.Common.run_cached ~iterations:10 ~arch:Arch.Arm64 ~seed:1
         Experiments.Common.V_normal (bench "DP"))
  in
  let clean = digest_of () in
  Support.Fault.Inject.set_spec
    "sim:0.5:11,worker:0.5:11,cache-read:0.7:11,cache-write:0.7:11";
  Unix.putenv "VSPEC_RETRIES" "8";
  Fun.protect
    ~finally:(fun () ->
      Support.Fault.Inject.set_spec "";
      Unix.putenv "VSPEC_RETRIES" "";
      Experiments.Common.clear_memo ();
      Support.Fault.Ledger.clear ())
    (fun () ->
      Alcotest.(check string) "injected run digests equal to clean run" clean
        (digest_of ()))

(* ---------------- stall publishing on every exit ---------------- *)

(* Both engines keep the stall sums in [Cpu.clock] and copy them into
   [Perf.counters] when a run exits.  These machine-level kernels leave
   through each exit path — a deopt, a [Machine_fault] (the decoded
   engine's refund path) and a return after a nested run on the same
   CPU — and the published sums must agree bit for bit between the
   engines, equal the clock's own sums, and be nonzero.  The kernels
   come before the exit: a dependent divide chain (backend stalls) and
   a taken back-edge (frontend stalls). *)

let mk_code ?(deopts = [||]) ~code_id insns =
  Code.assemble ~code_id ~name:(Printf.sprintf "stall%d" code_id)
    ~arch:Arch.Arm64 ~deopts ~gp_slots:4 ~fp_slots:4
    ~base_addr:(0x100 + (0x100 * code_id))
    (List.map Insn.make insns)

let stall_loop ~iters =
  [ Insn.Mov (0, Insn.Imm 0);
    Insn.Mov (7, Insn.Imm 1000003);
    Insn.Label 0;
    Insn.Alu { op = Insn.Sdiv; dst = 7; src = 7; rhs = Insn.Imm 1; set_flags = false };
    Insn.Alu { op = Insn.Add; dst = 0; src = 0; rhs = Insn.Imm 1; set_flags = false };
    Insn.Cmp (0, Insn.Imm iters);
    Insn.Bcond (Insn.Lt, 0) ]

let deopt_code () =
  let deopts =
    [| { Code.dp_id = 0; reason = Insn.Overflow; bc_pc = 0; frame = [||];
         accumulator = Code.Fv_dead } |]
  in
  (* The deopt fires mid-block, after the loop. *)
  mk_code ~deopts ~code_id:0
    (stall_loop ~iters:40
    @ [ Insn.Cmp (0, Insn.Imm 40); Insn.Deopt_if (Insn.Eq, 0);
        Insn.Mov (1, Insn.Imm 1); Insn.Ret ])

let fault_code () =
  (* A load far outside memory faults after the loop. *)
  mk_code ~code_id:0
    (stall_loop ~iters:40
    @ [ Insn.Mov (1, Insn.Imm 1_000_000); Insn.Ldr (2, Insn.mk_addr 1);
        Insn.Mov (3, Insn.Imm 1); Insn.Ret ])

let outer_code () =
  (* JIT -> JS -> JIT: stalls, a call into [inner_code], more stalls. *)
  mk_code ~code_id:0
    (stall_loop ~iters:20
    @ [ Insn.Call (Insn.Js_code 1, 0); Insn.Label 1;
        Insn.Alu { op = Insn.Sdiv; dst = 7; src = 7; rhs = Insn.Imm 1; set_flags = false };
        Insn.Alu { op = Insn.Add; dst = 0; src = 0; rhs = Insn.Imm 1; set_flags = false };
        Insn.Cmp (0, Insn.Imm 40); Insn.Bcond (Insn.Lt, 1); Insn.Ret ])

let inner_code () = mk_code ~code_id:1 (stall_loop ~iters:30 @ [ Insn.Ret ])

let stalls (cpu : Cpu.t) =
  let c = cpu.Cpu.counters in
  (c.Perf.frontend_stall, c.Perf.backend_stall)

(* [run engine cfg] -> the published sums after each observed exit. *)
let run_exits engine cfg ~code ~nested =
  Exec.set_engine (Some engine);
  Fun.protect
    ~finally:(fun () -> Exec.set_engine None)
    (fun () ->
      let cpu = Cpu.create cfg in
      let seen = ref [] in
      let rec host =
        {
          Exec.memory = Memory.create 64;
          call_builtin = (fun _ _ -> 0);
          call_js =
            (fun _ _ ->
              ignore (Exec.run cpu ~host ~code:(nested ()) ~args:[||]);
              seen := stalls cpu :: !seen;
              0);
        }
      in
      (match Exec.run cpu ~host ~code ~args:[||] with
      | _ -> ()
      | exception Exec.Machine_fault _ -> ());
      let clk = cpu.Cpu.clk in
      Alcotest.(check bool) "published sums equal the clock's" true
        (stalls cpu = (clk.Cpu.frontend_stall, clk.Cpu.backend_stall));
      List.rev (stalls cpu :: !seen))

let bits (fe, be) = (Int64.bits_of_float fe, Int64.bits_of_float be)

let check_exit name ?(nested = inner_code) code =
  List.iter
    (fun cfg ->
      let label = Printf.sprintf "%s on %s" name cfg.Cpu.cfg_name in
      let direct = run_exits Exec.Direct cfg ~code:(code ()) ~nested in
      let decoded = run_exits Exec.Decoded cfg ~code:(code ()) ~nested in
      List.iter
        (fun (fe, be) ->
          Alcotest.(check bool) (label ^ ": nonzero stalls") true
            (fe > 0.0 && be > 0.0))
        direct;
      Alcotest.(check (list (pair int64 int64)))
        (label ^ ": decoded stalls = direct, bit for bit")
        (List.map bits direct) (List.map bits decoded))
    [ Cpu.fast_arm64; Cpu.inorder_a55 ]

let run_plain code =
  let host =
    { Exec.memory = Memory.create 64; call_builtin = (fun _ _ -> 0);
      call_js = (fun _ _ -> 0) }
  in
  Decode.run (Cpu.create Cpu.fast_arm64) ~host ~code ~args:[||]

let test_stalls_deopt () =
  check_exit "deopt exit" deopt_code;
  (* Sanity: the kernel really leaves through its deopt. *)
  match run_plain (deopt_code ()) with
  | Exec.Deopt _ -> ()
  | Exec.Done _ -> Alcotest.fail "expected a deopt"

let test_stalls_fault () =
  check_exit "machine fault" fault_code;
  match run_plain (fault_code ()) with
  | _ -> Alcotest.fail "expected a machine fault"
  | exception Exec.Machine_fault _ -> ()

let test_stalls_nested () =
  (* Two observations: after the inner run returns (its publish) and
     after the outer run, which kept accumulating past it. *)
  check_exit "nested JIT -> JS -> JIT call" outer_code

let suite =
  [
    ( "exec-determinism",
      [
        Alcotest.test_case "normal cells (X64 + ARM64)" `Quick
          test_normal_cells;
        Alcotest.test_case "deopting benchmark" `Quick test_deopting_cells;
        Alcotest.test_case "check-removal variant" `Quick test_removal_cells;
        Alcotest.test_case "smi-ext variant" `Quick test_smi_ext_cell;
        Alcotest.test_case "fault injection is transparent" `Quick
          test_injection_transparent;
        Alcotest.test_case "stalls published on deopt exit" `Quick
          test_stalls_deopt;
        Alcotest.test_case "stalls published on machine fault" `Quick
          test_stalls_fault;
        Alcotest.test_case "stalls published around nested run" `Quick
          test_stalls_nested;
      ] );
  ]
