exception Js_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Js_error m)) fmt

(* Builtin ids (relative to Runtime.builtin_base). *)
let id_print = 0
let id_math_floor = 1
let id_math_ceil = 2
let id_math_sqrt = 3
let id_math_abs = 4
let id_math_min = 5
let id_math_max = 6
let id_math_pow = 7
let id_math_sin = 8
let id_math_cos = 9
let id_math_exp = 10
let id_math_log = 11
let id_math_round = 12
let id_math_random = 13
let id_math_atan2 = 14
let id_math_tan = 15
let id_math_asin = 16
let id_math_acos = 17
let id_math_log2 = 18
let id_array_push = 20
let id_array_pop = 21
let id_array_join = 22
let id_array_index_of = 23
let id_array_slice = 24
let id_array_concat = 25
let id_array_reverse = 26
let id_str_char_code_at = 30
let id_str_char_at = 31
let id_str_index_of = 32
let id_str_substring = 33
let id_str_split = 34
let id_str_to_upper = 35
let id_str_to_lower = 36
let id_string_from_char_code = 37
let id_str_trim = 38
let id_str_repeat = 39
let id_parse_int = 40
let id_parse_float = 41
let id_is_nan = 42
let id_rx_test = 50
let id_rx_exec = 51
let id_regexp_ctor = 52
let id_array_ctor = 53

(* Runtime-call builtins (V8 "runtime functions"): generic fallbacks the
   optimizing compiler emits when feedback is megamorphic or a fast path
   does not apply.  Ids 100+; argument 0 is always `this`-like. *)
let id_rt_binop = 100      (* (op smi, a, b) *)
let id_rt_compare = 101    (* (op smi, a, b) *)
let id_rt_to_boolean = 102
let id_rt_typeof = 103
let id_rt_get_named = 104  (* (obj, name string) *)
let id_rt_set_named = 105  (* (obj, name string, v) *)
let id_rt_get_keyed = 106
let id_rt_set_keyed = 107
let id_rt_call = 108       (* (callee, this, args...) *)
let id_rt_construct = 109  (* (callee, args...) *)
let id_rt_alloc_number = 110
let id_rt_create_array = 111
let id_rt_create_object = 112
let id_rt_create_closure = 113  (* (fid smi, ctx) *)
let id_rt_create_context = 114  (* (parent ctx, slot count smi) *)
let id_rt_call_method = 115     (* (recv, name string, args...) *)

(* Binop/compare codes shared with the JIT backend. *)
let binop_code : Ast.binop -> int = function
  | Ast.Add -> 0
  | Ast.Sub -> 1
  | Ast.Mul -> 2
  | Ast.Div -> 3
  | Ast.Mod -> 4
  | Ast.Bit_and -> 5
  | Ast.Bit_or -> 6
  | Ast.Bit_xor -> 7
  | Ast.Shl -> 8
  | Ast.Shr -> 9
  | Ast.Ushr -> 10
  | Ast.Lt -> 11
  | Ast.Le -> 12
  | Ast.Gt -> 13
  | Ast.Ge -> 14
  | Ast.Eq -> 15
  | Ast.Neq -> 16
  | Ast.Strict_eq -> 17
  | Ast.Strict_neq -> 18
  | Ast.Logical_and | Ast.Logical_or -> invalid_arg "binop_code: logical"

let binop_of_code = function
  | 0 -> Ast.Add
  | 1 -> Ast.Sub
  | 2 -> Ast.Mul
  | 3 -> Ast.Div
  | 4 -> Ast.Mod
  | 5 -> Ast.Bit_and
  | 6 -> Ast.Bit_or
  | 7 -> Ast.Bit_xor
  | 8 -> Ast.Shl
  | 9 -> Ast.Shr
  | 10 -> Ast.Ushr
  | 11 -> Ast.Lt
  | 12 -> Ast.Le
  | 13 -> Ast.Gt
  | 14 -> Ast.Ge
  | 15 -> Ast.Eq
  | 16 -> Ast.Neq
  | 17 -> Ast.Strict_eq
  | 18 -> Ast.Strict_neq
  | n -> invalid_arg (Printf.sprintf "binop_of_code: %d" n)

let name_of = function
  | 0 -> "print"
  | 1 -> "Math.floor"
  | 2 -> "Math.ceil"
  | 3 -> "Math.sqrt"
  | 4 -> "Math.abs"
  | 5 -> "Math.min"
  | 6 -> "Math.max"
  | 7 -> "Math.pow"
  | 8 -> "Math.sin"
  | 9 -> "Math.cos"
  | 10 -> "Math.exp"
  | 11 -> "Math.log"
  | 12 -> "Math.round"
  | 13 -> "Math.random"
  | 14 -> "Math.atan2"
  | 15 -> "Math.tan"
  | 16 -> "Math.asin"
  | 17 -> "Math.acos"
  | 18 -> "Math.log2"
  | 25 -> "Array.prototype.concat"
  | 26 -> "Array.prototype.reverse"
  | 38 -> "String.prototype.trim"
  | 39 -> "String.prototype.repeat"
  | 20 -> "Array.prototype.push"
  | 21 -> "Array.prototype.pop"
  | 22 -> "Array.prototype.join"
  | 23 -> "Array.prototype.indexOf"
  | 24 -> "Array.prototype.slice"
  | 30 -> "String.prototype.charCodeAt"
  | 31 -> "String.prototype.charAt"
  | 32 -> "String.prototype.indexOf"
  | 33 -> "String.prototype.substring"
  | 34 -> "String.prototype.split"
  | 35 -> "String.prototype.toUpperCase"
  | 36 -> "String.prototype.toLowerCase"
  | 37 -> "String.fromCharCode"
  | 40 -> "parseInt"
  | 41 -> "parseFloat"
  | 42 -> "isNaN"
  | 50 -> "RegExp.prototype.test"
  | 51 -> "RegExp.prototype.exec"
  | 52 -> "RegExp"
  | 53 -> "Array"
  | n -> Printf.sprintf "builtin_%d" n

let string_method = function
  | "charCodeAt" -> Some id_str_char_code_at
  | "charAt" -> Some id_str_char_at
  | "indexOf" -> Some id_str_index_of
  | "substring" -> Some id_str_substring
  | "split" -> Some id_str_split
  | "toUpperCase" -> Some id_str_to_upper
  | "toLowerCase" -> Some id_str_to_lower
  | "trim" -> Some id_str_trim
  | "repeat" -> Some id_str_repeat
  | _ -> None

let array_method = function
  | "push" -> Some id_array_push
  | "pop" -> Some id_array_pop
  | "join" -> Some id_array_join
  | "indexOf" -> Some id_array_index_of
  | "slice" -> Some id_array_slice
  | "concat" -> Some id_array_concat
  | "reverse" -> Some id_array_reverse
  | _ -> None

let arg args i h = if i < Array.length args then args.(i) else Heap.undefined h

let num (rt : Runtime.t) args i = Conv.to_number rt.Runtime.heap (arg args i rt.Runtime.heap)

(* An integer argument: a SMI's value directly, without the boxed
   float of [Conv.to_number]; anything else as [int_of_float (num ..)]. *)
let int_arg (rt : Runtime.t) args i =
  let v = arg args i rt.Runtime.heap in
  if Value.is_smi v then Value.smi_value v else int_of_float (num rt args i)

let math1 rt args ~cost f =
  rt.Runtime.charge_builtin ~cycles:cost;
  Heap.number rt.Runtime.heap (f (num rt args 0))

let math2 rt args ~cost f =
  rt.Runtime.charge_builtin ~cycles:cost;
  Heap.number rt.Runtime.heap (f (num rt args 0) (num rt args 1))

let js_floor f = Float.of_int (int_of_float (floor f))

(* ---------------- Regex helpers ---------------- *)

let regex_of_instance (rt : Runtime.t) this =
  let h = rt.Runtime.heap in
  match Heap.get_property h this "__rx" with
  | Some v when Value.is_smi v -> Runtime.get_regex rt (Value.smi_value v)
  | _ -> err "receiver is not a RegExp"

let regexp_proto (rt : Runtime.t) =
  let h = rt.Runtime.heap in
  let cell = Heap.global_cell h "__RegExp_proto" in
  let v = Heap.cell_value h cell in
  if v <> Heap.undefined h then v
  else begin
    let proto = Heap.alloc_empty_object h in
    Heap.set_property h proto "test"
      (Heap.alloc_function h
         ~function_id:(Runtime.builtin_base + id_rx_test)
         ~context:(Heap.undefined h));
    Heap.set_property h proto "exec"
      (Heap.alloc_function h
         ~function_id:(Runtime.builtin_base + id_rx_exec)
         ~context:(Heap.undefined h));
    Heap.set_cell_value h cell proto;
    proto
  end

let regexp_map (rt : Runtime.t) =
  let h = rt.Runtime.heap in
  let cell = Heap.global_cell h "__RegExp_map" in
  let v = Heap.cell_value h cell in
  if v <> Heap.undefined h then Value.smi_value v
  else begin
    let map_id = Heap.new_object_map h ~prototype:(regexp_proto rt) in
    Heap.set_cell_value h cell (Value.smi map_id);
    map_id
  end

(* ---------------- Dispatch ---------------- *)

(* A top-level function rather than a local closure over [rt], which
   would be allocated on every dispatch. *)
let charge (rt : Runtime.t) cycles = rt.Runtime.charge_builtin ~cycles

let set_named_property h obj name v =
  if Value.is_smi obj then err "cannot set property '%s' of a number" name;
  match Heap.instance_type_of h obj with
  | Heap.It_object | Heap.It_array -> Heap.set_property h obj name v
  | Heap.It_function when name = "prototype" ->
    if Value.is_pointer v && Heap.instance_type_of h v = Heap.It_object then
      Heap.set_function_prototype h obj v
    else err "a function's prototype must be an object"
  | Heap.It_function -> err "cannot set property '%s' of a function" name
  | _ -> err "cannot set property '%s'" name

let rec dispatch (rt : Runtime.t) id ~this ~args =
  let h = rt.Runtime.heap in
  match id with
  | 0 (* print *) ->
    let parts = Array.to_list (Array.map (Conv.to_js_string h) args) in
    Buffer.add_string rt.Runtime.output (String.concat " " parts);
    Buffer.add_char rt.Runtime.output '\n';
    charge rt 200;
    Heap.undefined h
  | 1 -> math1 rt args ~cost:25 js_floor
  | 2 -> math1 rt args ~cost:25 (fun f -> Float.of_int (int_of_float (ceil f)))
  | 3 -> math1 rt args ~cost:30 sqrt
  | 4 -> math1 rt args ~cost:15 Float.abs
  | 5 -> math2 rt args ~cost:20 Float.min
  | 6 -> math2 rt args ~cost:20 Float.max
  | 7 -> math2 rt args ~cost:60 Float.pow
  | 8 -> math1 rt args ~cost:60 sin
  | 9 -> math1 rt args ~cost:60 cos
  | 10 -> math1 rt args ~cost:60 exp
  | 11 -> math1 rt args ~cost:60 log
  | 12 -> math1 rt args ~cost:25 Float.round
  | 13 ->
    charge rt 30;
    Heap.number h (Support.Rng.float rt.Runtime.rng 1.0)
  | 14 -> math2 rt args ~cost:70 Float.atan2
  | 15 -> math1 rt args ~cost:70 tan
  | 16 -> math1 rt args ~cost:70 asin
  | 17 -> math1 rt args ~cost:70 acos
  | 18 -> math1 rt args ~cost:60 (fun x -> log x /. log 2.0)
  | 20 (* push *) ->
    charge rt 35;
    Array.iter (fun v -> Heap.array_push h this v) args;
    Value.smi (Heap.array_length h this)
  | 21 (* pop *) ->
    charge rt 30;
    Heap.array_pop h this
  | 22 (* join *) ->
    let sep =
      if Array.length args > 0 && args.(0) <> Heap.undefined h then
        Conv.to_js_string h args.(0)
      else ","
    in
    let n = Heap.array_length h this in
    let buf = Buffer.create (n * 4) in
    for i = 0 to n - 1 do
      if i > 0 then Buffer.add_string buf sep;
      let e = Heap.array_get h this i in
      if e <> Heap.undefined h && e <> Heap.null_value h then
        Buffer.add_string buf (Conv.to_js_string h e)
    done;
    charge rt (40 + (12 * Buffer.length buf));
    Heap.alloc_string h (Buffer.contents buf)
  | 23 (* array indexOf *) ->
    let needle = arg args 0 h in
    let n = Heap.array_length h this in
    let rec go i =
      if i >= n then -1
      else if Conv.strict_equal h (Heap.array_get h this i) needle then i
      else go (i + 1)
    in
    let r = go 0 in
    charge rt (30 + (6 * if r < 0 then n else r + 1));
    Value.smi r
  | 24 (* slice *) ->
    let n = Heap.array_length h this in
    let from = if Array.length args > 0 then int_arg rt args 0 else 0 in
    let til = if Array.length args > 1 then int_arg rt args 1 else n in
    let norm x = if x < 0 then max 0 (n + x) else min x n in
    let from = norm from and til = norm til in
    let len = max 0 (til - from) in
    let kind = Heap.array_elements_kind h this in
    let out = Heap.alloc_array h kind ~capacity:(max 1 len) in
    for i = 0 to len - 1 do
      Heap.array_set h out i (Heap.array_get h this (from + i))
    done;
    charge rt (40 + (8 * len));
    out
  | 25 (* concat *) ->
    let n1 = Heap.array_length h this in
    let other = arg args 0 h in
    let n2 =
      if Value.is_pointer other && Heap.instance_type_of h other = Heap.It_array
      then Heap.array_length h other
      else -1
    in
    if n2 < 0 then err "Array.concat expects an array argument"
    else begin
      let out = Heap.alloc_array h Heap.Packed_smi ~capacity:(max 1 (n1 + n2)) in
      for i = 0 to n1 - 1 do
        Heap.array_set h out i (Heap.array_get h this i)
      done;
      for j = 0 to n2 - 1 do
        Heap.array_set h out (n1 + j) (Heap.array_get h other j)
      done;
      charge rt (40 + (8 * (n1 + n2)));
      out
    end
  | 26 (* reverse, in place like JS *) ->
    let n = Heap.array_length h this in
    let i = ref 0 and j = ref (n - 1) in
    while !i < !j do
      let a = Heap.array_get h this !i and b = Heap.array_get h this !j in
      Heap.array_set h this !i b;
      Heap.array_set h this !j a;
      incr i;
      decr j
    done;
    charge rt (30 + (6 * n));
    this
  | 30 (* charCodeAt *) ->
    charge rt 20;
    let i = int_arg rt args 0 in
    if i < 0 || i >= Heap.string_length h this then Heap.alloc_heap_number h Float.nan
    else Value.smi (Heap.string_char_code h this i)
  | 31 (* charAt *) ->
    charge rt 30;
    let i = int_arg rt args 0 in
    if i < 0 || i >= Heap.string_length h this then Heap.intern h ""
    else Heap.alloc_string h (String.make 1 (Char.chr (Heap.string_char_code h this i land 0xFF)))
  | 32 (* string indexOf *) ->
    let s = Heap.string_value h this in
    let needle = Conv.to_js_string h (arg args 0 h) in
    let from = if Array.length args > 1 then int_arg rt args 1 else 0 in
    let n = String.length s and m = String.length needle in
    let rec go i =
      if i + m > n then -1
      else if String.sub s i m = needle then i
      else go (i + 1)
    in
    let r = if m = 0 then min from n else go (max 0 from) in
    charge rt (30 + (4 * n));
    Value.smi r
  | 33 (* substring *) ->
    let s = Heap.string_value h this in
    let n = String.length s in
    let a = int_arg rt args 0 in
    let b = if Array.length args > 1 then int_arg rt args 1 else n in
    let clamp x = max 0 (min x n) in
    let a = clamp a and b = clamp b in
    let lo = min a b and hi = max a b in
    charge rt (30 + (4 * (hi - lo)));
    Heap.alloc_string h (String.sub s lo (hi - lo))
  | 34 (* split *) ->
    let s = Heap.string_value h this in
    let sep = Conv.to_js_string h (arg args 0 h) in
    let parts =
      if sep = "" then List.init (String.length s) (fun i -> String.make 1 s.[i])
      else String.split_on_char sep.[0] s (* single-char separators only *)
    in
    let out = Heap.alloc_array h Heap.Packed_tagged ~capacity:(List.length parts) in
    List.iteri (fun i p -> Heap.array_set h out i (Heap.alloc_string h p)) parts;
    charge rt (50 + (10 * String.length s));
    out
  | 35 (* toUpperCase *) ->
    let s = Heap.string_value h this in
    charge rt (30 + (4 * String.length s));
    Heap.alloc_string h (String.uppercase_ascii s)
  | 36 (* toLowerCase *) ->
    let s = Heap.string_value h this in
    charge rt (30 + (4 * String.length s));
    Heap.alloc_string h (String.lowercase_ascii s)
  | 37 (* String.fromCharCode *) ->
    charge rt (25 + (5 * Array.length args));
    Heap.alloc_string h
      (String.init (Array.length args) (fun i ->
           Char.chr (int_arg rt args i land 0xFF)))
  | 38 (* trim *) ->
    let s = Heap.string_value h this in
    charge rt (25 + (2 * String.length s));
    Heap.alloc_string h (String.trim s)
  | 39 (* repeat *) ->
    let s = Heap.string_value h this in
    let n = max 0 (int_arg rt args 0) in
    if n * String.length s > 100000 then err "repeat result too large";
    let b = Buffer.create (n * String.length s) in
    for _ = 1 to n do
      Buffer.add_string b s
    done;
    charge rt (30 + (3 * Buffer.length b));
    Heap.alloc_string h (Buffer.contents b)
  | 40 (* parseInt *) ->
    charge rt 60;
    let s = String.trim (Conv.to_js_string h (arg args 0 h)) in
    let radix =
      if Array.length args > 1 then int_arg rt args 1 else 10
    in
    let parse_with_radix s radix =
      let sign, s =
        if String.length s > 0 && s.[0] = '-' then (-1, String.sub s 1 (String.length s - 1))
        else if String.length s > 0 && s.[0] = '+' then (1, String.sub s 1 (String.length s - 1))
        else (1, s)
      in
      let digit c =
        if c >= '0' && c <= '9' then Some (Char.code c - 48)
        else if c >= 'a' && c <= 'z' then Some (Char.code c - 87)
        else if c >= 'A' && c <= 'Z' then Some (Char.code c - 55)
        else None
      in
      let rec go i acc any =
        if i >= String.length s then if any then Some (float_of_int (sign * acc)) else None
        else begin
          match digit s.[i] with
          | Some d when d < radix -> go (i + 1) ((acc * radix) + d) true
          | _ -> if any then Some (float_of_int (sign * acc)) else None
        end
      in
      go 0 0 false
    in
    (match parse_with_radix s (if radix = 0 then 10 else radix) with
    | Some f -> Heap.number h f
    | None -> Heap.alloc_heap_number h Float.nan)
  | 41 (* parseFloat *) ->
    charge rt 60;
    let s = String.trim (Conv.to_js_string h (arg args 0 h)) in
    (* Longest numeric prefix. *)
    let n = String.length s in
    let rec best i =
      if i > n then None
      else begin
        match float_of_string_opt (String.sub s 0 i) with
        | Some f -> (
          match best (i + 1) with Some g -> Some g | None -> Some f)
        | None -> best (i + 1)
      end
    in
    (match best 1 with
    | Some f -> Heap.number h f
    | None -> Heap.alloc_heap_number h Float.nan)
  | 42 (* isNaN *) ->
    charge rt 20;
    Heap.bool_value h (Float.is_nan (num rt args 0))
  | 50 (* rx.test *) ->
    let rx = regex_of_instance rt this in
    let s = Conv.to_js_string h (arg args 0 h) in
    let r = Regex.test rx s in
    charge rt (100 + (2 * Regex.steps_of_last_exec rx));
    Heap.bool_value h r
  | 51 (* rx.exec *) ->
    let rx = regex_of_instance rt this in
    let s = Conv.to_js_string h (arg args 0 h) in
    (match Regex.exec rx s 0 with
    | None ->
      charge rt (100 + (2 * Regex.steps_of_last_exec rx));
      Heap.null_value h
    | Some m ->
      let ncaps = Array.length m.Regex.captures in
      let out = Heap.alloc_array h Heap.Packed_tagged ~capacity:(1 + ncaps) in
      Heap.array_set h out 0
        (Heap.alloc_string h (String.sub s m.Regex.m_start (m.Regex.m_end - m.Regex.m_start)));
      Array.iteri
        (fun i cap ->
          if i > 0 then
            match cap with
            | Some (a, b) ->
              Heap.array_set h out i (Heap.alloc_string h (String.sub s a (b - a)))
            | None -> Heap.array_set h out i (Heap.undefined h))
        m.Regex.captures;
      Heap.set_property h out "index" (Value.smi m.Regex.m_start);
      charge rt (150 + (2 * Regex.steps_of_last_exec rx));
      out)
  | 100 (* rt_binop *) ->
    charge rt 13;
    let op = binop_of_code (Value.smi_value (arg args 0 h)) in
    let a = arg args 1 h and b = arg args 2 h in
    generic_binop rt op a b
  | 101 (* rt_compare *) ->
    charge rt 11;
    let op = binop_of_code (Value.smi_value (arg args 0 h)) in
    let a = arg args 1 h and b = arg args 2 h in
    generic_compare rt op a b
  | 102 (* rt_to_boolean *) ->
    charge rt 7;
    Heap.bool_value h (Conv.to_boolean h (arg args 0 h))
  | 103 (* rt_typeof *) ->
    charge rt 10;
    Heap.intern h (Conv.typeof_string h (arg args 0 h))
  | 104 (* rt_get_named *) ->
    charge rt 19;
    let obj = arg args 0 h in
    let name = Conv.to_js_string h (arg args 1 h) in
    generic_get_named rt obj name
  | 105 (* rt_set_named *) ->
    charge rt 23;
    let obj = arg args 0 h in
    let name = Conv.to_js_string h (arg args 1 h) in
    set_named_property h obj name (arg args 2 h);
    Heap.undefined h
  | 106 (* rt_get_keyed *) ->
    charge rt 17;
    generic_get_keyed rt (arg args 0 h) (arg args 1 h)
  | 107 (* rt_set_keyed *) ->
    charge rt 21;
    generic_set_keyed rt (arg args 0 h) (arg args 1 h) (arg args 2 h);
    Heap.undefined h
  | 108 (* rt_call *) ->
    charge rt 22;
    let callee = arg args 0 h and this2 = arg args 1 h in
    let rest = if Array.length args > 2 then Array.sub args 2 (Array.length args - 2) else [||] in
    rt.Runtime.reenter_js callee this2 rest
  | 109 (* rt_construct *) ->
    charge rt 30;
    let callee = arg args 0 h in
    let rest = if Array.length args > 1 then Array.sub args 1 (Array.length args - 1) else [||] in
    rt.Runtime.construct_hook callee rest
  | 110 (* rt_alloc_number: inline-allocation cost, not a real call *) ->
    charge rt 8;
    Heap.alloc_heap_number h 0.0
  | 111 (* rt_create_array *) ->
    charge rt 30;
    let cap = Value.smi_value (arg args 0 h) in
    Heap.alloc_array h Heap.Packed_smi ~capacity:(max 1 cap)
  | 112 (* rt_create_object *) ->
    charge rt 28;
    Heap.alloc_empty_object h
  | 113 (* rt_create_closure *) ->
    charge rt 22;
    let fid = Value.smi_value (arg args 0 h) in
    Heap.alloc_function h ~function_id:fid ~context:(arg args 1 h)
  | 114 (* rt_create_context *) ->
    charge rt 25;
    let parent = arg args 0 h in
    let slots = Value.smi_value (arg args 1 h) in
    Heap.alloc_context h ~parent ~slots
  | 115 (* rt_call_method: receiver-type dispatch like the interpreter *) ->
    charge rt 26;
    let recv = arg args 0 h in
    let name = Conv.to_js_string h (arg args 1 h) in
    let rest =
      if Array.length args > 2 then Array.sub args 2 (Array.length args - 2)
      else [||]
    in
    if Value.is_smi recv then err "cannot call method '%s' on a number" name
    else begin
      match Heap.instance_type_of h recv with
      | Heap.It_string -> (
        match string_method name with
        | Some b -> dispatch rt b ~this:recv ~args:rest
        | None -> err "string has no method '%s'" name)
      | Heap.It_array -> (
        match array_method name with
        | Some b -> dispatch rt b ~this:recv ~args:rest
        | None -> (
          match Heap.get_property h recv name with
          | Some m -> rt.Runtime.reenter_js m recv rest
          | None -> err "undefined is not a function"))
      | Heap.It_object | Heap.It_function -> (
        match Heap.get_property h recv name with
        | Some m -> rt.Runtime.reenter_js m recv rest
        | None -> err "undefined is not a function")
      | _ -> err "cannot call method '%s' on %s" name (Conv.typeof_string h recv)
    end
  | id -> err "unknown builtin %d (%s)" id (name_of id)

(* Feedback-free semantics for the generic paths; must agree with the
   interpreter's feedback-recording versions. *)
and generic_binop rt op a b =
  let h = rt.Runtime.heap in
  match op with
  | Ast.Add ->
    if Heap.is_number h a && Heap.is_number h b then
      Heap.number h (Heap.number_value h a +. Heap.number_value h b)
    else begin
      let s = Conv.to_js_string h a ^ Conv.to_js_string h b in
      rt.Runtime.charge_builtin ~cycles:(30 + (4 * String.length s));
      Heap.alloc_string h s
    end
  | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod ->
    let x = Conv.to_number h a and y = Conv.to_number h b in
    Heap.number h
      (match op with
      | Ast.Sub -> x -. y
      | Ast.Mul -> x *. y
      | Ast.Div -> x /. y
      | _ -> Float.rem x y)
  | Ast.Bit_and | Ast.Bit_or | Ast.Bit_xor | Ast.Shl | Ast.Shr | Ast.Ushr ->
    let to_i32 v =
      let f = Conv.to_number h v in
      if Float.is_nan f || Float.abs f = Float.infinity then 0
      else begin
        let m = Float.rem (Float.trunc f) 4294967296.0 in
        let w = Int64.to_int (Int64.of_float m) land 0xFFFFFFFF in
        if w >= 0x80000000 then w - 0x100000000 else w
      end
    in
    let x = to_i32 a and y = to_i32 b in
    let r =
      match op with
      | Ast.Bit_and -> x land y
      | Ast.Bit_or -> x lor y
      | Ast.Bit_xor -> x lxor y
      | Ast.Shl ->
        let w = (x lsl (y land 31)) land 0xFFFFFFFF in
        if w >= 0x80000000 then w - 0x100000000 else w
      | Ast.Shr -> x asr (y land 31)
      | _ -> (x land 0xFFFFFFFF) lsr (y land 31)
    in
    Heap.number h (float_of_int r)
  | _ -> err "rt_binop: unexpected operator"

and generic_compare rt op a b =
  let h = rt.Runtime.heap in
  let bool_v = Heap.bool_value h in
  match op with
  | Ast.Eq -> bool_v (Conv.loose_equal h a b)
  | Ast.Neq -> bool_v (not (Conv.loose_equal h a b))
  | Ast.Strict_eq -> bool_v (Conv.strict_equal h a b)
  | Ast.Strict_neq -> bool_v (not (Conv.strict_equal h a b))
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
    if Heap.is_string h a && Heap.is_string h b then begin
      let x = Heap.string_value h a and y = Heap.string_value h b in
      bool_v
        (match op with
        | Ast.Lt -> x < y
        | Ast.Le -> x <= y
        | Ast.Gt -> x > y
        | _ -> x >= y)
    end
    else begin
      let x = Conv.to_number h a and y = Conv.to_number h b in
      bool_v
        (match op with
        | Ast.Lt -> x < y
        | Ast.Le -> x <= y
        | Ast.Gt -> x > y
        | _ -> x >= y)
    end
  | _ -> err "rt_compare: unexpected operator"

and generic_get_named rt obj name =
  let h = rt.Runtime.heap in
  if Value.is_smi obj then err "cannot read property '%s' of a number" name;
  match Heap.instance_type_of h obj with
  | Heap.It_array when name = "length" -> Value.smi (Heap.array_length h obj)
  | Heap.It_string when name = "length" -> Value.smi (Heap.string_length h obj)
  | Heap.It_function when name = "prototype" -> Heap.function_prototype h obj
  | Heap.It_object | Heap.It_array | Heap.It_function -> (
    match Heap.get_property h obj name with
    | Some v -> v
    | None -> Heap.undefined h)
  | _ -> err "cannot read property '%s' of %s" name (Conv.typeof_string h obj)

and generic_get_keyed rt obj key =
  let h = rt.Runtime.heap in
  if Value.is_pointer obj && Heap.instance_type_of h obj = Heap.It_array
     && Value.is_smi key
  then Heap.array_get h obj (Value.smi_value key)
  else if Value.is_pointer obj && Heap.instance_type_of h obj = Heap.It_string
          && Value.is_smi key
  then begin
    let i = Value.smi_value key in
    if i >= 0 && i < Heap.string_length h obj then
      Heap.alloc_string h
        (String.make 1 (Char.chr (Heap.string_char_code h obj i land 0xFF)))
    else Heap.undefined h
  end
  else if Value.is_pointer obj then generic_get_named rt obj (Conv.to_js_string h key)
  else err "cannot index %s" (Conv.typeof_string h obj)

and generic_set_keyed rt obj key v =
  let h = rt.Runtime.heap in
  if Value.is_pointer obj && Heap.instance_type_of h obj = Heap.It_array
     && Value.is_smi key
  then begin
    let i = Value.smi_value key in
    let len = Heap.array_length h obj in
    if i >= 0 && i <= len then Heap.array_set h obj i v
    else err "sparse array write at index %d (length %d)" i len
  end
  else if Value.is_pointer obj
          && (Heap.instance_type_of h obj = Heap.It_object
             || Heap.instance_type_of h obj = Heap.It_array)
  then Heap.set_property h obj (Conv.to_js_string h key) v
  else err "cannot index-assign %s" (Conv.typeof_string h obj)

let id_regexp_ctor = id_regexp_ctor
let id_array_ctor = id_array_ctor

let construct_builtin (rt : Runtime.t) id ~args =
  let h = rt.Runtime.heap in
  if id = id_regexp_ctor then begin
    let pattern = Conv.to_js_string h (arg args 0 h) in
    let rx =
      try Regex.compile pattern
      with Regex.Regex_error m -> err "invalid RegExp /%s/: %s" pattern m
    in
    let rx_id = Runtime.add_regex rt rx in
    rt.Runtime.charge_builtin ~cycles:(200 + (20 * String.length pattern));
    let obj = Heap.alloc_object h ~map_id:(regexp_map rt) in
    Heap.set_property h obj "__rx" (Value.smi rx_id);
    Heap.set_property h obj "source" (Heap.alloc_string h pattern);
    Heap.set_property h obj "lastIndex" (Value.smi 0);
    obj
  end
  else if id = id_array_ctor then begin
    rt.Runtime.charge_builtin ~cycles:60;
    match args with
    | [| n |] when Value.is_smi n ->
      let len = Value.smi_value n in
      let arr = Heap.alloc_array h Heap.Packed_smi ~capacity:(max 1 len) in
      for i = 0 to len - 1 do
        Heap.array_set h arr i Value.zero
      done;
      arr
    | _ ->
      let arr = Heap.alloc_array h Heap.Packed_smi ~capacity:(max 1 (Array.length args)) in
      Array.iteri (fun i v -> Heap.array_set h arr i v) args;
      arr
  end
  else err "builtin %s is not a constructor" (name_of id)

let mk_builtin_fn (rt : Runtime.t) id =
  Heap.alloc_function rt.Runtime.heap ~function_id:(Runtime.builtin_base + id)
    ~context:(Heap.undefined rt.Runtime.heap)

let install_globals (rt : Runtime.t) =
  let h = rt.Runtime.heap in
  let set_global name v = Heap.set_cell_value h (Heap.global_cell h name) v in
  set_global "print" (mk_builtin_fn rt id_print);
  set_global "parseInt" (mk_builtin_fn rt id_parse_int);
  set_global "parseFloat" (mk_builtin_fn rt id_parse_float);
  set_global "isNaN" (mk_builtin_fn rt id_is_nan);
  set_global "RegExp" (mk_builtin_fn rt id_regexp_ctor);
  set_global "Array" (mk_builtin_fn rt id_array_ctor);
  let math = Heap.alloc_empty_object h in
  let set_math name id = Heap.set_property h math name (mk_builtin_fn rt id) in
  set_math "floor" id_math_floor;
  set_math "ceil" id_math_ceil;
  set_math "sqrt" id_math_sqrt;
  set_math "abs" id_math_abs;
  set_math "min" id_math_min;
  set_math "max" id_math_max;
  set_math "pow" id_math_pow;
  set_math "sin" id_math_sin;
  set_math "cos" id_math_cos;
  set_math "exp" id_math_exp;
  set_math "log" id_math_log;
  set_math "round" id_math_round;
  set_math "random" id_math_random;
  set_math "atan2" id_math_atan2;
  set_math "tan" id_math_tan;
  set_math "asin" id_math_asin;
  set_math "acos" id_math_acos;
  set_math "log2" id_math_log2;
  Heap.set_property h math "PI" (Heap.alloc_heap_number h Float.pi);
  Heap.set_property h math "E" (Heap.alloc_heap_number h (exp 1.0));
  set_global "Math" math;
  let string_ns = Heap.alloc_empty_object h in
  Heap.set_property h string_ns "fromCharCode" (mk_builtin_fn rt id_string_from_char_code);
  set_global "String" string_ns
