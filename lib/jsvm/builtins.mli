(** Builtin functions (V8's Torque-compiled builtins stand-in).

    Builtins execute natively and charge their cost in bulk on the
    engine's CPU model through [Runtime.charge_builtin] — mirroring V8,
    where builtin execution happens outside JIT-compiled code and
    therefore contributes no deoptimization checks (the paper uses this
    to explain the low check overhead of string and regex benchmarks). *)

exception Js_error of string

val dispatch : Runtime.t -> int -> this:int -> args:int array -> int
(** [dispatch rt builtin_id ~this ~args] runs builtin [builtin_id]
    (relative id, without {!Runtime.builtin_base}). *)

val name_of : int -> string

val int_arg : Runtime.t -> int array -> int -> int
(** [int_arg rt args i]: argument [i] as an integer, as the string and
    array builtins read indexes and char codes — [int_of_float] of its
    number value (a missing argument reads as undefined), taken straight
    from the tag for a SMI. *)

val set_named_property : Heap.t -> int -> string -> int -> unit
(** [obj.name = v] on any receiver, shared by the interpreter and the
    optimizing compiler's generic store so both tiers agree.  Plain
    objects and arrays take the property.  A function has no named
    slots: [f.prototype = o] stores [o] (which must be an object) in
    its prototype field, and any other name raises {!Js_error}, as does
    a primitive receiver. *)

val string_method : string -> int option
(** Builtin id implementing a method of primitive strings. *)

val array_method : string -> int option

val id_regexp_ctor : int
val id_array_ctor : int

(** {1 Runtime-call builtins used by the optimizing compiler} *)

val id_rt_binop : int
val id_rt_compare : int
val id_rt_to_boolean : int
val id_rt_typeof : int
val id_rt_get_named : int
val id_rt_set_named : int
val id_rt_get_keyed : int
val id_rt_set_keyed : int
val id_rt_call : int
val id_rt_construct : int
val id_rt_alloc_number : int
val id_rt_create_array : int
val id_rt_create_object : int
val id_rt_create_closure : int
val id_rt_create_context : int
val id_rt_call_method : int

val binop_code : Ast.binop -> int
(** Operator encoding passed as the first argument of [rt_binop] /
    [rt_compare]. *)

val binop_of_code : int -> Ast.binop

val install_globals : Runtime.t -> unit
(** Creates the global environment: [print], [Math], [String],
    [RegExp], [Array], [parseInt], [parseFloat], [isNaN]. *)

val construct_builtin : Runtime.t -> int -> args:int array -> int
(** [new] on a builtin constructor (RegExp, Array). *)
