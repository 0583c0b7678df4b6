exception Js_error = Builtins.Js_error

let err fmt = Printf.ksprintf (fun m -> raise (Js_error m)) fmt

(* JS ToInt32. *)
let to_int32 f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then 0
  else begin
    let t = Float.trunc f in
    let m = Float.rem t 4294967296.0 in
    let i = Int64.to_int (Int64.of_float m) in
    let w = i land 0xFFFFFFFF in
    if w >= 0x80000000 then w - 0x100000000 else w
  end

(* ToInt32 of a number value; a SMI is its own int32. *)
let int32_of h v =
  if Value.is_smi v then Value.smi_value v else to_int32 (Conv.to_number h v)

let ot_of h v =
  if Value.is_smi v then Feedback.Ot_smi
  else begin
    match Heap.instance_type_of h v with
    | Heap.It_heap_number -> Feedback.Ot_number
    | Heap.It_string -> Feedback.Ot_string
    | _ -> Feedback.Ot_any
  end

let const_name (f : Runtime.func_rt) i =
  match f.info.Bytecode.consts.(i) with
  | Bytecode.C_str s -> s
  | Bytecode.C_num _ -> err "internal: numeric constant used as name"

(* Global cells never move and are never freed, so each function keeps
   the cell of every name constant it has used. *)
let global_cell h (f : Runtime.func_rt) c =
  let cell = f.Runtime.global_cells.(c) in
  if cell <> 0 then cell
  else begin
    let cell = Heap.global_cell h (const_name f c) in
    f.Runtime.global_cells.(c) <- cell;
    cell
  end

(* The context [depth] levels up from [c]. *)
let rec context_at h c depth =
  if depth = 0 then c else context_at h (Heap.context_parent h c) (depth - 1)

(* ------------------------------------------------------------------ *)
(* Arithmetic with feedback                                            *)
(* ------------------------------------------------------------------ *)

let smi_mul_fits a b =
  let p = a * b in
  Value.smi_fits p && not (p = 0 && (a < 0 || b < 0))

let arith rt fvec slot (op : Ast.binop) a b =
  let h = rt.Runtime.heap in
  if Value.is_smi a && Value.is_smi b then begin
    let x = Value.smi_value a and y = Value.smi_value b in
    match op with
    | Ast.Add ->
      let r = x + y in
      if Value.smi_fits r then begin
        Feedback.record_binop fvec slot Feedback.Ot_smi;
        Value.smi r
      end
      else begin
        Feedback.record_binop fvec slot Feedback.Ot_number;
        Heap.alloc_heap_number h (float_of_int r)
      end
    | Ast.Sub ->
      let r = x - y in
      if Value.smi_fits r then begin
        Feedback.record_binop fvec slot Feedback.Ot_smi;
        Value.smi r
      end
      else begin
        Feedback.record_binop fvec slot Feedback.Ot_number;
        Heap.alloc_heap_number h (float_of_int r)
      end
    | Ast.Mul ->
      if smi_mul_fits x y then begin
        Feedback.record_binop fvec slot Feedback.Ot_smi;
        Value.smi (x * y)
      end
      else begin
        Feedback.record_binop fvec slot Feedback.Ot_number;
        Heap.number h (float_of_int x *. float_of_int y)
      end
    | Ast.Div ->
      if y <> 0 && x mod y = 0 && not (x = 0 && y < 0) && Value.smi_fits (x / y)
      then begin
        Feedback.record_binop fvec slot Feedback.Ot_smi;
        Value.smi (x / y)
      end
      else begin
        Feedback.record_binop fvec slot Feedback.Ot_number;
        Heap.number h (float_of_int x /. float_of_int y)
      end
    | Ast.Mod ->
      if y <> 0 && not (x mod y = 0 && x < 0) then begin
        (* Negative zero results must be doubles. *)
        Feedback.record_binop fvec slot Feedback.Ot_smi;
        Value.smi (x mod y)
      end
      else begin
        Feedback.record_binop fvec slot Feedback.Ot_number;
        Heap.number h (Float.rem (float_of_int x) (float_of_int y))
      end
    | _ -> err "internal: arith on non-arith op"
  end
  else if Heap.is_number h a && Heap.is_number h b then begin
    Feedback.record_binop fvec slot Feedback.Ot_number;
    let x = Heap.number_value h a and y = Heap.number_value h b in
    let r =
      match op with
      | Ast.Add -> x +. y
      | Ast.Sub -> x -. y
      | Ast.Mul -> x *. y
      | Ast.Div -> x /. y
      | Ast.Mod -> Float.rem x y
      | _ -> err "internal: arith on non-arith op"
    in
    Heap.number h r
  end
  else if op = Ast.Add && (Heap.is_string h a || Heap.is_string h b) then begin
    Feedback.record_binop fvec slot
      (if Heap.is_string h a && Heap.is_string h b then Feedback.Ot_string
       else Feedback.Ot_any);
    let s = Conv.to_js_string h a ^ Conv.to_js_string h b in
    rt.Runtime.charge_builtin ~cycles:(30 + (4 * String.length s));
    Heap.alloc_string h s
  end
  else if op = Ast.Add then begin
    (* Object/array coercion: both sides become strings. *)
    Feedback.record_binop fvec slot Feedback.Ot_any;
    let s = Conv.to_js_string h a ^ Conv.to_js_string h b in
    rt.Runtime.charge_builtin ~cycles:(40 + (4 * String.length s));
    Heap.alloc_string h s
  end
  else begin
    Feedback.record_binop fvec slot Feedback.Ot_any;
    let x = Conv.to_number h a and y = Conv.to_number h b in
    let r =
      match op with
      | Ast.Sub -> x -. y
      | Ast.Mul -> x *. y
      | Ast.Div -> x /. y
      | Ast.Mod -> Float.rem x y
      | _ -> err "internal: arith fallthrough"
    in
    Heap.number h r
  end

let bitwise rt fvec slot (op : Ast.binop) a b =
  let h = rt.Runtime.heap in
  let both_smi = Value.is_smi a && Value.is_smi b in
  let x = int32_of h a and y = int32_of h b in
  let r =
    match op with
    | Ast.Bit_and -> x land y
    | Ast.Bit_or -> x lor y
    | Ast.Bit_xor -> x lxor y
    | Ast.Shl ->
      let w = (x lsl (y land 31)) land 0xFFFFFFFF in
      if w >= 0x80000000 then w - 0x100000000 else w
    | Ast.Shr -> x asr (y land 31)
    | Ast.Ushr ->
      let u = (x land 0xFFFFFFFF) lsr (y land 31) in
      u
    | _ -> err "internal: bitwise on non-bit op"
  in
  let fits = Value.smi_fits r in
  Feedback.record_binop fvec slot
    (if both_smi && fits then Feedback.Ot_smi
     else if Heap.is_number h a && Heap.is_number h b then Feedback.Ot_number
     else Feedback.Ot_any);
  if fits then Value.smi r else Heap.alloc_heap_number h (float_of_int r)

let compare_vals rt fvec slot (op : Ast.binop) a b =
  let h = rt.Runtime.heap in
  match op with
  | Ast.Eq ->
    Feedback.record_compare fvec slot (Feedback.join_operand (ot_of h a) (ot_of h b));
    Heap.bool_value h (Conv.loose_equal h a b)
  | Ast.Neq ->
    Feedback.record_compare fvec slot (Feedback.join_operand (ot_of h a) (ot_of h b));
    Heap.bool_value h (not (Conv.loose_equal h a b))
  | Ast.Strict_eq ->
    Feedback.record_compare fvec slot (Feedback.join_operand (ot_of h a) (ot_of h b));
    Heap.bool_value h (Conv.strict_equal h a b)
  | Ast.Strict_neq ->
    Feedback.record_compare fvec slot (Feedback.join_operand (ot_of h a) (ot_of h b));
    Heap.bool_value h (not (Conv.strict_equal h a b))
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
    if Value.is_smi a && Value.is_smi b then begin
      Feedback.record_compare fvec slot Feedback.Ot_smi;
      let x = Value.smi_value a and y = Value.smi_value b in
      Heap.bool_value h
        (match op with
        | Ast.Lt -> x < y
        | Ast.Le -> x <= y
        | Ast.Gt -> x > y
        | Ast.Ge -> x >= y
        | _ -> assert false)
    end
    else if Heap.is_string h a && Heap.is_string h b then begin
      Feedback.record_compare fvec slot Feedback.Ot_string;
      let x = Heap.string_value h a and y = Heap.string_value h b in
      rt.Runtime.charge_builtin ~cycles:(20 + min (String.length x) (String.length y));
      Heap.bool_value h
        (match op with
        | Ast.Lt -> x < y
        | Ast.Le -> x <= y
        | Ast.Gt -> x > y
        | Ast.Ge -> x >= y
        | _ -> assert false)
    end
    else begin
      Feedback.record_compare fvec slot
        (if Heap.is_number h a && Heap.is_number h b then Feedback.Ot_number
         else Feedback.Ot_any);
      let x = Conv.to_number h a and y = Conv.to_number h b in
      Heap.bool_value h
        (match op with
        | Ast.Lt -> x < y
        | Ast.Le -> x <= y
        | Ast.Gt -> x > y
        | Ast.Ge -> x >= y
        | _ -> assert false)
    end
  | _ -> err "internal: compare on non-compare op"

(* ------------------------------------------------------------------ *)
(* Property access with feedback                                       *)
(* ------------------------------------------------------------------ *)

(* The inline cache of a named access: an [Own] entry of the site's own
   feedback for the receiver's map (see [Feedback.own_hit]).  On a hit
   the lookup and the recording are both skipped; recording would add
   nothing. *)
let get_named rt fvec slot obj name =
  let h = rt.Runtime.heap in
  if Value.is_smi obj then err "cannot read property '%s' of a number" name
  else begin
    let info = Heap.map_of h obj in
    match info.Heap.itype with
    | Heap.It_object | Heap.It_array ->
      let s = Feedback.own_hit fvec slot ~map_id:info.Heap.map_id in
      if s >= 0 then Heap.load_slot h obj s
      else if name = "length" && info.Heap.itype = Heap.It_array then begin
        Feedback.record_prop fvec slot ~map_id:info.Heap.map_id Feedback.Length;
        Value.smi (Heap.array_length h obj)
      end
      else begin
        match Heap.own_slot info name with
        | Some s ->
          Feedback.record_prop fvec slot ~map_id:info.Heap.map_id (Feedback.Own s);
          Heap.load_slot h obj s
        | None ->
          (* Prototype chain walk. *)
          let rec walk holder =
            if holder = Heap.undefined h || holder = 0 then None
            else begin
              let hinfo = Heap.map_of h holder in
              match Heap.own_slot hinfo name with
              | Some s -> Some (holder, s)
              | None -> walk hinfo.Heap.prototype
            end
          in
          (match walk info.Heap.prototype with
          | Some (holder, s) ->
            Feedback.record_prop fvec slot ~map_id:info.Heap.map_id
              (Feedback.Proto { holder; slot = s });
            Heap.load_slot h holder s
          | None ->
            Feedback.mark_megamorphic fvec slot;
            Heap.undefined h)
      end
    | Heap.It_string ->
      if name = "length" then begin
        Feedback.record_prop fvec slot ~map_id:info.Heap.map_id Feedback.Length;
        Value.smi (Heap.string_length h obj)
      end
      else begin
        Feedback.mark_megamorphic fvec slot;
        Heap.undefined h
      end
    | Heap.It_function ->
      if name = "prototype" then Heap.function_prototype h obj
      else begin
        match Heap.get_property h obj name with
        | Some v -> v
        | None -> Heap.undefined h
      end
    | Heap.It_heap_number -> err "cannot read property '%s' of a number" name
    | Heap.It_oddball -> err "cannot read property '%s' of %s" name (Conv.to_js_string h obj)
    | _ -> err "cannot read property '%s'" name
  end

let set_named rt fvec slot obj name v =
  let h = rt.Runtime.heap in
  if Value.is_smi obj then err "cannot set property '%s' of a number" name
  else begin
    let info = Heap.map_of h obj in
    match info.Heap.itype with
    | Heap.It_object | Heap.It_array ->
      let s = Feedback.own_hit fvec slot ~map_id:info.Heap.map_id in
      if s >= 0 then Heap.store_slot h obj s v
      else begin
        match Heap.own_slot info name with
        | Some s ->
          Feedback.record_prop fvec slot ~map_id:info.Heap.map_id (Feedback.Own s);
          Heap.store_slot h obj s v
        | None ->
          let old_map = info.Heap.map_id in
          Heap.set_property h obj name v;
          let new_info = Heap.map_of h obj in
          let s =
            match Heap.own_slot new_info name with
            | Some s -> s
            | None -> err "internal: property %s vanished after store" name
          in
          Feedback.record_prop fvec slot ~map_id:old_map
            (Feedback.Transition { new_map = new_info.Heap.map_id; slot = s })
      end
    | _ -> Builtins.set_named_property h obj name v
  end

let get_keyed rt fvec slot obj key =
  let h = rt.Runtime.heap in
  if Value.is_pointer obj && Heap.instance_type_of h obj = Heap.It_array
     && Value.is_smi key
  then begin
    let info = Heap.map_of h obj in
    let i = Value.smi_value key in
    if i >= 0 && i < Heap.array_length h obj then begin
      Feedback.record_elem fvec slot ~map_id:info.Heap.map_id ~smi_index:true;
      Heap.array_get h obj i
    end
    else begin
      (* OOB reads leave the fast path for good. *)
      Feedback.mark_megamorphic fvec slot;
      Heap.undefined h
    end
  end
  else if Value.is_pointer obj && Heap.instance_type_of h obj = Heap.It_string
          && Value.is_smi key
  then begin
    Feedback.mark_megamorphic fvec slot;
    let i = Value.smi_value key in
    if i >= 0 && i < Heap.string_length h obj then begin
      rt.Runtime.charge_builtin ~cycles:30;
      Heap.alloc_string h
        (String.make 1 (Char.chr (Heap.string_char_code h obj i land 0xFF)))
    end
    else Heap.undefined h
  end
  else if Value.is_pointer obj
          && (Heap.instance_type_of h obj = Heap.It_object
             || Heap.instance_type_of h obj = Heap.It_array)
  then begin
    Feedback.mark_megamorphic fvec slot;
    let name = Conv.to_js_string h key in
    match Heap.get_property h obj name with
    | Some v -> v
    | None -> Heap.undefined h
  end
  else err "cannot index %s" (Conv.typeof_string h obj)

let set_keyed rt fvec slot obj key v =
  let h = rt.Runtime.heap in
  if Value.is_pointer obj && Heap.instance_type_of h obj = Heap.It_array
     && Value.is_smi key
  then begin
    let i = Value.smi_value key in
    let len = Heap.array_length h obj in
    if i >= 0 && i <= len then begin
      Heap.array_set h obj i v;
      (* Record the post-transition map: that's the steady state. *)
      let info = Heap.map_of h obj in
      Feedback.record_elem fvec slot ~map_id:info.Heap.map_id ~smi_index:true
    end
    else err "sparse array write at index %d (length %d)" i len
  end
  else if Value.is_pointer obj
          && (Heap.instance_type_of h obj = Heap.It_object
             || Heap.instance_type_of h obj = Heap.It_array)
  then begin
    Feedback.mark_megamorphic fvec slot;
    Heap.set_property h obj (Conv.to_js_string h key) v
  end
  else err "cannot index-assign %s" (Conv.typeof_string h obj)

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

let rec call_closure rt ~closure ~this ~args =
  let h = rt.Runtime.heap in
  if not (Heap.is_function h closure) then
    err "%s is not a function" (Conv.to_js_string h closure);
  let fid = Heap.function_id_of h closure in
  if fid >= Runtime.builtin_base then
    Builtins.dispatch rt (fid - Runtime.builtin_base) ~this ~args
  else begin
    let f = Runtime.func rt fid in
    f.Runtime.invocations <- f.Runtime.invocations + 1;
    (match rt.Runtime.on_invoke with Some hook -> hook rt f | None -> ());
    match rt.Runtime.call_optimized with
    | Some call when f.Runtime.code_ref >= 0 ->
      let margs = Array.make (2 + Array.length args) 0 in
      margs.(0) <- closure;
      margs.(1) <- this;
      Array.blit args 0 margs 2 (Array.length args);
      call fid margs
    | _ -> interpret rt f ~closure ~this ~args
  end

and interpret rt (f : Runtime.func_rt) ~closure ~this ~args =
  let h = rt.Runtime.heap in
  let info = f.Runtime.info in
  let u = Heap.undefined h in
  (* Two extra rooting slots at the end: closure and context. *)
  let regs = Array.make (info.Bytecode.n_regs + 2) u in
  regs.(0) <- this;
  let n_copy = min info.Bytecode.n_params (Array.length args) in
  Array.blit args 0 regs 1 n_copy;
  regs.(info.Bytecode.n_regs) <- closure;
  let parent_ctx = Heap.function_context h closure in
  let ctx =
    if info.Bytecode.context_slots > 0 then
      Heap.alloc_context h ~parent:parent_ctx ~slots:info.Bytecode.context_slots
    else parent_ctx
  in
  regs.(info.Bytecode.n_regs + 1) <- ctx;
  run_loop rt f ~regs ~ctx ~acc:u ~pc:0

and resume rt ~fid ~closure ~regs ~acc ~pc =
  let f = Runtime.func rt fid in
  let info = f.Runtime.info in
  let h = rt.Runtime.heap in
  let full = Array.make (info.Bytecode.n_regs + 2) (Heap.undefined h) in
  Array.blit regs 0 full 0 (min (Array.length regs) info.Bytecode.n_regs);
  full.(info.Bytecode.n_regs) <- closure;
  let ctx = Heap.function_context h closure in
  full.(info.Bytecode.n_regs + 1) <- ctx;
  run_loop rt f ~regs:full ~ctx ~acc ~pc

and call_function_value rt callee args =
  call_closure rt ~closure:callee ~this:(Heap.undefined rt.Runtime.heap) ~args

and run_loop rt (f : Runtime.func_rt) ~regs ~ctx ~acc ~pc =
  let h = rt.Runtime.heap in
  let info = f.Runtime.info in
  let fvec = f.Runtime.feedback in
  let consts = Runtime.materialize_consts rt f in
  let code = info.Bytecode.code in
  let frame = { Runtime.f_regs = regs; f_acc = acc } in
  Runtime.push_frame rt frame;
  let cost = ref 0 and nops = ref 0 in
  let flush () =
    if !nops > 0 then begin
      rt.Runtime.charge_interp ~cycles:!cost ~instructions:!nops;
      cost := 0;
      nops := 0
    end
  in
  let acc = ref acc in
  let pc = ref pc in
  let running = ref true in
  (try
     while !running do
       let op = code.(!pc) in
       cost := !cost + Bytecode.interp_cost op;
       incr nops;
       frame.Runtime.f_acc <- !acc;
       let next = ref (!pc + 1) in
       (match op with
       | Bytecode.Lda_zero -> acc := Value.zero
       | Bytecode.Lda_smi n -> acc := Value.smi n
       | Bytecode.Lda_const i -> acc := consts.(i)
       | Bytecode.Lda_undefined -> acc := Heap.undefined h
       | Bytecode.Lda_null -> acc := Heap.null_value h
       | Bytecode.Lda_true -> acc := Heap.true_value h
       | Bytecode.Lda_false -> acc := Heap.false_value h
       | Bytecode.Ldar r -> acc := regs.(r)
       | Bytecode.Star r -> regs.(r) <- !acc
       | Bytecode.Mov (d, s) -> regs.(d) <- regs.(s)
       | Bytecode.Lda_global c -> acc := Heap.cell_value h (global_cell h f c)
       | Bytecode.Sta_global c -> Heap.set_cell_value h (global_cell h f c) !acc
       | Bytecode.Lda_context (depth, slot) ->
         acc := Heap.context_get h (context_at h ctx depth) slot
       | Bytecode.Sta_context (depth, slot) ->
         Heap.context_set h (context_at h ctx depth) slot !acc
       | Bytecode.Binop (op, r, slot) -> (
         let a = regs.(r) and b = !acc in
         match op with
         | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod ->
           acc := arith rt fvec slot op a b
         | Ast.Bit_and | Ast.Bit_or | Ast.Bit_xor | Ast.Shl | Ast.Shr | Ast.Ushr
           ->
           acc := bitwise rt fvec slot op a b
         | _ -> err "internal: unexpected binop")
       | Bytecode.Test (op, r, slot) ->
         acc := compare_vals rt fvec slot op regs.(r) !acc
       | Bytecode.Neg_acc slot ->
         let v = !acc in
         if Value.is_smi v && Value.smi_value v <> 0
            && Value.smi_fits (-Value.smi_value v)
         then begin
           Feedback.record_binop fvec slot Feedback.Ot_smi;
           acc := Value.smi (-Value.smi_value v)
         end
         else begin
           Feedback.record_binop fvec slot
             (if Heap.is_number h v then Feedback.Ot_number else Feedback.Ot_any);
           acc := Heap.number h (-.Conv.to_number h v)
         end
       | Bytecode.Bitnot_acc slot ->
         let v = !acc in
         let r = lnot (to_int32 (Conv.to_number h v)) in
         let r = if r land 0xFFFFFFFF >= 0x80000000 then (r land 0xFFFFFFFF) - 0x100000000 else r land 0xFFFFFFFF in
         Feedback.record_binop fvec slot
           (if Value.is_smi v && Value.smi_fits r then Feedback.Ot_smi
            else Feedback.Ot_number);
         acc := (if Value.smi_fits r then Value.smi r else Heap.alloc_heap_number h (float_of_int r))
       | Bytecode.Not_acc ->
         acc := Heap.bool_value h (not (Conv.to_boolean h !acc))
       | Bytecode.Typeof_acc ->
         acc := Heap.intern h (Conv.typeof_string h !acc)
       | Bytecode.Jump t -> next := t
       | Bytecode.Jump_if_false t -> if not (Conv.to_boolean h !acc) then next := t
       | Bytecode.Jump_if_true t -> if Conv.to_boolean h !acc then next := t
       | Bytecode.Get_named (r, c, slot) ->
         acc := get_named rt fvec slot regs.(r) (const_name f c)
       | Bytecode.Set_named (r, c, slot) ->
         set_named rt fvec slot regs.(r) (const_name f c) !acc
       | Bytecode.Get_keyed (r, slot) ->
         acc := get_keyed rt fvec slot regs.(r) !acc
       | Bytecode.Set_keyed (r, k, slot) ->
         set_keyed rt fvec slot regs.(r) regs.(k) !acc
       | Bytecode.Create_array cap ->
         acc := Heap.alloc_array h Heap.Packed_smi ~capacity:(max 1 cap)
       | Bytecode.Create_object -> acc := Heap.alloc_empty_object h
       | Bytecode.Create_closure fid ->
         acc := Heap.alloc_function h ~function_id:fid ~context:ctx
       | Bytecode.Call (callee_r, first, n, slot) ->
         flush ();
         let callee = regs.(callee_r) in
         let args = Array.sub regs first n in
         record_call_target rt fvec slot callee;
         acc := call_closure rt ~closure:callee ~this:(Heap.undefined h) ~args
       | Bytecode.Call_method (recv_r, name_c, first, n, slot) ->
         flush ();
         let recv = regs.(recv_r) in
         let name = const_name f name_c in
         let args = Array.sub regs first n in
         acc := call_method rt fvec slot recv name args
       | Bytecode.Construct (callee_r, first, n, slot) ->
         flush ();
         let callee = regs.(callee_r) in
         let args = Array.sub regs first n in
         acc := construct rt fvec slot callee args
       | Bytecode.Return ->
         flush ();
         running := false);
       pc := !next
     done
   with e ->
     Runtime.pop_frame rt;
     raise e);
  Runtime.pop_frame rt;
  flush ();
  !acc

and record_call_target rt fvec slot callee =
  let h = rt.Runtime.heap in
  if Heap.is_function h callee then
    Feedback.record_call fvec slot ~target:(Heap.function_id_of h callee)
      ~target_obj:callee

and call_method rt fvec slot recv name args =
  let h = rt.Runtime.heap in
  let call_slot = slot + 1 in
  if Value.is_smi recv then err "cannot call method '%s' on a number" name
  else begin
    match Heap.instance_type_of h recv with
    | Heap.It_string -> (
      match Builtins.string_method name with
      | Some b ->
        Feedback.record_call fvec call_slot ~target:(Runtime.builtin_base + b)
          ~target_obj:0;
        Builtins.dispatch rt b ~this:recv ~args
      | None -> err "string has no method '%s'" name)
    | Heap.It_array -> (
      match Builtins.array_method name with
      | Some b ->
        Feedback.record_call fvec call_slot ~target:(Runtime.builtin_base + b)
          ~target_obj:0;
        Builtins.dispatch rt b ~this:recv ~args
      | None ->
        (* Named property holding a function (e.g. on exec results). *)
        let m = get_named rt fvec slot recv name in
        record_call_target rt fvec call_slot m;
        call_closure rt ~closure:m ~this:recv ~args)
    | Heap.It_object | Heap.It_function ->
      let m = get_named rt fvec slot recv name in
      record_call_target rt fvec call_slot m;
      call_closure rt ~closure:m ~this:recv ~args
    | _ -> err "cannot call method '%s' on %s" name (Conv.typeof_string h recv)
  end

and construct rt fvec slot callee args =
  let h = rt.Runtime.heap in
  if not (Heap.is_function h callee) then
    err "%s is not a constructor" (Conv.to_js_string h callee);
  let fid = Heap.function_id_of h callee in
  Feedback.record_call fvec slot ~target:fid ~target_obj:callee;
  construct_no_feedback rt callee args

and construct_no_feedback rt callee args =
  let h = rt.Runtime.heap in
  if not (Heap.is_function h callee) then
    err "%s is not a constructor" (Conv.to_js_string h callee);
  let fid = Heap.function_id_of h callee in
  if fid >= Runtime.builtin_base then
    Builtins.construct_builtin rt (fid - Runtime.builtin_base) ~args
  else begin
    let f = Runtime.func rt fid in
    let map_id =
      match f.Runtime.initial_map with
      | Some m -> m
      | None ->
        let proto = Heap.function_prototype h callee in
        let m = Heap.new_object_map h ~prototype:proto in
        f.Runtime.initial_map <- Some m;
        m
    in
    let this = Heap.alloc_object h ~map_id in
    let r = call_closure rt ~closure:callee ~this ~args in
    if
      Value.is_pointer r
      && (Heap.instance_type_of h r = Heap.It_object
         || Heap.instance_type_of h r = Heap.It_array)
    then r
    else this
  end

let interpret_direct rt f ~closure ~this ~args = interpret rt f ~closure ~this ~args

let attach rt =
  rt.Runtime.reenter_js <-
    (fun closure this args -> call_closure rt ~closure ~this ~args);
  rt.Runtime.construct_hook <-
    (fun callee args -> construct_no_feedback rt callee args)

let run_main rt =
  attach rt;
  let h = rt.Runtime.heap in
  let f = Runtime.func rt rt.Runtime.main in
  f.Runtime.invocations <- f.Runtime.invocations + 1;
  let closure =
    Heap.alloc_function h ~function_id:rt.Runtime.main ~context:(Heap.undefined h)
  in
  interpret rt f ~closure ~this:(Heap.undefined h) ~args:[||]
