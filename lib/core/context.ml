open Helix_ir
open Helix_machine

(* Per-core functional execution engine.

   A context executes IR eagerly -- registers and private memory are
   core-local, so early evaluation is safe -- and exposes a pull interface
   ([next_uop]) that yields one timed uop per retired instruction.  The
   timing model consumes uops at simulated speed; because the interface is
   pull-based, eager execution never runs ahead of the core model by more
   than its decode capacity.

   Shared-world semantics cannot run early: a load inside a sequential
   segment gets its value at its timed issue point, so the context blocks
   ([Blocked]) until the core model fires the uop's sink.  Stores and
   signals carry their payload in the uop and let execution continue.

   Whether an access is shared is decided exactly as in the paper's
   hardware (Section 3.1): the context counts executed wait and signal
   instructions; memory operations at positive depth go to the shared
   world.

   Contexts run a decoded program ([decode]): every block's instructions
   sit in an array together with everything [step] would otherwise
   recompute per instruction -- source and destination register tokens
   for each of the four frame-depth classes, the static uop kinds, the
   branch's static id and the resolved callees.  [step] then allocates
   only the uop it returns (plus the dynamic kind of a memory access). *)

(* Minimal view of a parallel-loop trigger; the executor keeps the full
   metadata keyed by (function, header). *)
type parallel_trigger = { p_func : string; p_header : Ir.label }

type status =
  | Running
  | Blocked                      (* waiting for a shared load's sink *)
  | Suspended of parallel_trigger (* serial core reached a parallel header *)
  | Finished of int option

(* Register tokens carry the frame depth modulo 4 so a callee's registers
   do not alias its caller's in the core models' scoreboards.  The class
   sits in the low two bits, so a token is at most 4 * the largest
   register + 3 and the cores' dense scoreboards stay small. *)
let depth_classes = 4
let token cls r = ((r land 0xffff) lsl 2) lor cls

type dblock = {
  d_label : Ir.label;
  d_instrs : Ir.instr array;
  d_srcs : int list array array;    (* [class].(i): source tokens *)
  d_dsts : int option array array;  (* [class].(i): destination token *)
  d_kinds : Uop.kind array;         (* static kind; memory ops rebuild it *)
  d_callees : int array;            (* [Call]: callee index, -1 unknown *)
  d_term : Ir.terminator;
  d_br_srcs : int list array;       (* [class]: the branch condition *)
  d_taken : Uop.kind;               (* [Br] outcomes, with the static id *)
  d_not_taken : Uop.kind;
  d_header : bool;                  (* a parallel-loop header *)
}

type dfunc = {
  df_func : Ir.func;
  df_blocks : dblock array;         (* by label; [missing] where absent *)
  df_nregs : int;
}

type program = {
  dp_prog : Ir.program;
  dp_funcs : dfunc array;
  dp_index : (string, int) Hashtbl.t;
}

let missing =
  {
    d_label = -1;
    d_instrs = [||];
    d_srcs = [||];
    d_dsts = [||];
    d_kinds = [||];
    d_callees = [||];
    d_term = Ir.Ret None;
    d_br_srcs = [||];
    d_taken = Uop.Alu 1;
    d_not_taken = Uop.Alu 1;
    d_header = false;
  }

let lib_latency = function
  | Ir.Lc_abs | Ir.Lc_min | Ir.Lc_max -> 1
  | Ir.Lc_hash | Ir.Lc_log2 -> 3
  | Ir.Lc_isqrt -> 12
  | Ir.Lc_rand -> 4
  | Ir.Lc_strcmp | Ir.Lc_memchr -> 6

let static_kind = function
  | Ir.Binop (_, (Ir.Mul), _, _) -> Uop.Alu 3
  | Ir.Binop (_, (Ir.Div | Ir.Rem), _, _) -> Uop.Alu 20
  | Ir.Binop _ | Ir.Unop _ | Ir.Mov _ | Ir.Nop -> Uop.Alu 1
  | Ir.Call _ -> Uop.Alu 2 (* call/return overhead as a short ALU op *)
  | Ir.Libcall (_, lc, _) -> Uop.Alu (lib_latency lc)
  | Ir.Wait seg -> Uop.Shared (Uop.S_wait seg)
  | Ir.Signal seg -> Uop.Shared (Uop.S_signal seg)
  | Ir.Flush -> Uop.Shared Uop.S_flush
  | Ir.Load _ | Ir.Store _ -> Uop.Alu 1 (* rebuilt with the address *)

let decode_block ~index ~header (f : Ir.func) label (b : Ir.block) =
  let instrs = Array.of_list b.Ir.b_instrs in
  let per_class g =
    Array.init depth_classes (fun cls -> Array.map (g cls) instrs)
  in
  (* the branch predictor's index: must stay this exact hash *)
  let static_id = Hashtbl.hash (f.Ir.f_name, label) in
  {
    d_label = label;
    d_instrs = instrs;
    d_srcs =
      per_class (fun cls ins -> List.map (token cls) (Ir.uses_of_instr ins));
    d_dsts =
      per_class (fun cls ins ->
          match ins with
          | Ir.Binop (r, _, _, _) | Ir.Unop (r, _, _) | Ir.Mov (r, _)
          | Ir.Load (r, _) | Ir.Libcall (r, _, _) ->
              Some (token cls r)
          | _ -> None);
    d_kinds = Array.map static_kind instrs;
    d_callees =
      Array.map
        (function
          | Ir.Call (_, callee, _) -> (
              match Hashtbl.find_opt index callee with
              | Some i -> i
              | None -> -1)
          | _ -> -1)
        instrs;
    d_term = b.Ir.b_term;
    d_br_srcs =
      Array.init depth_classes (fun cls ->
          match b.Ir.b_term with
          | Ir.Br (c, _, _) -> List.map (token cls) (Ir.regs_of_operand c)
          | _ -> []);
    d_taken = Uop.Branch { taken = true; static_id };
    d_not_taken = Uop.Branch { taken = false; static_id };
    d_header = header f.Ir.f_name label;
  }

let decode ?(trigger = fun _ _ -> false) (prog : Ir.program) =
  let funcs =
    Hashtbl.fold (fun _ f acc -> f :: acc) prog.Ir.p_funcs []
    |> List.sort (fun a b -> compare a.Ir.f_name b.Ir.f_name)
    |> Array.of_list
  in
  let index = Hashtbl.create (Array.length funcs) in
  Array.iteri (fun i f -> Hashtbl.replace index f.Ir.f_name i) funcs;
  let decode_func (f : Ir.func) =
    let n_labels =
      Hashtbl.fold (fun l _ acc -> max acc (l + 1)) f.Ir.f_blocks 0
    in
    let blocks = Array.make n_labels missing in
    Hashtbl.iter
      (fun l b ->
        if l >= 0 then blocks.(l) <- decode_block ~index ~header:trigger f l b)
      f.Ir.f_blocks;
    { df_func = f; df_blocks = blocks; df_nregs = max 1 f.Ir.f_next_reg }
  in
  { dp_prog = prog; dp_funcs = Array.map decode_func funcs; dp_index = index }

let block_at df l =
  let b =
    if l >= 0 && l < Array.length df.df_blocks then df.df_blocks.(l)
    else missing
  in
  if b == missing then ignore (Ir.block_of_func df.df_func l) (* raises *);
  b

let find_dfunc p name =
  match Hashtbl.find p.dp_index name with
  | i -> p.dp_funcs.(i)
  | exception Not_found -> ignore (Ir.find_func p.dp_prog name); assert false

type frame = {
  df : dfunc;
  regs : int array;
  cls : int;                     (* frame depth land 3 *)
  mutable blk : dblock;
  mutable index : int;           (* next instruction within the block *)
  mutable entered : bool;        (* block-entry hook already fired *)
  dst_in_caller : Ir.reg option; (* where the caller wants our result *)
}

type t = {
  prog : program;
  mem : Memory.t;
  core_id : int;
  mutable frames : frame list;   (* innermost first *)
  mutable depth : int;           (* List.length frames *)
  mutable status : status;
  mutable wait_depth : int;
  mutable seg_stack : int list;  (* open segments, innermost first *)
  mutable rand_seed : int;
  mutable retired : int;
  (* serial mode: suspend on entering a decoded parallel-loop header *)
  stops_at_headers : bool;
  (* dependence-sanitizer tap: observes every IR-level memory access with
     the segment (if any) it executes under.  Accesses internal to
     libcalls (strcmp/memchr) are not reported -- they are private-world
     reads by construction. *)
  mutable on_mem : (seg:int option -> addr:int -> write:bool -> unit) option;
}

let create ?(serial = false) prog mem ~core_id =
  {
    prog;
    mem;
    core_id;
    frames = [];
    depth = 0;
    status = Finished None;
    wait_depth = 0;
    seg_stack = [];
    rand_seed = 0x12345;
    retired = 0;
    stops_at_headers = serial;
    on_mem = None;
  }

let value regs = function Ir.Imm i -> i | Ir.Reg r -> Array.unsafe_get regs r

let addr_of regs (a : Ir.addr) = value regs a.Ir.base + value regs a.Ir.offset

(* Parameters [ps] take the leading [args]; missing arguments read 0. *)
let rec bind_ints regs ps args =
  match (ps, args) with
  | p :: ps, a :: args ->
      regs.(p) <- a;
      bind_ints regs ps args
  | _ -> ()

let rec bind_operands regs ~caller ps args =
  match (ps, args) with
  | p :: ps, a :: args ->
      regs.(p) <- value caller a;
      bind_operands regs ~caller ps args
  | _ -> ()

let new_frame df ~depth dst_in_caller =
  {
    df;
    regs = Array.make df.df_nregs 0;
    cls = depth land (depth_classes - 1);
    blk = block_at df df.df_func.Ir.f_entry;
    index = 0;
    entered = false;
    dst_in_caller;
  }

(* Start executing [fname args]; any previous call is discarded. *)
let start t fname args =
  let fr = new_frame (find_dfunc t.prog fname) ~depth:1 None in
  bind_ints fr.regs fr.df.df_func.Ir.f_params args;
  t.frames <- [ fr ];
  t.depth <- 1;
  t.status <- Running;
  t.wait_depth <- 0;
  t.seg_stack <- []

let set_mem_hook t hook = t.on_mem <- hook

(* Innermost open segment, [None] outside any wait..signal window. *)
let current_segment t =
  match t.seg_stack with s :: _ -> Some s | [] -> None

let observe_mem t ~addr ~write =
  match t.on_mem with
  | None -> ()
  | Some f -> f ~seg:(current_segment t) ~addr ~write

let status t = t.status
let wait_depth t = t.wait_depth

let current_frame t =
  match t.frames with
  | f :: _ -> f
  | [] -> invalid_arg "Context: no frame"

(* Read a register of the outermost (serial) frame, e.g. to evaluate
   parallel-loop parameters at loop entry. *)
let reg_value t r = (current_frame t).regs.(r)

let set_reg t r v = (current_frame t).regs.(r) <- v

let operand_value t (o : Ir.operand) = value (current_frame t).regs o

(* Force the current frame to resume at [block] (used when the executor
   finishes a parallel loop and the serial core continues at its exit). *)
let jump_to t block =
  let fr = current_frame t in
  fr.blk <- block_at fr.df block;
  fr.index <- 0;
  fr.entered <- true;
  (* a suspended serial context becomes runnable again *)
  (match t.status with Suspended _ -> t.status <- Running | _ -> ());
  t.wait_depth <- 0;
  t.seg_stack <- []

(* The [i]-th argument's value, 0 past the end. *)
let rec arg regs args i =
  match args with
  | [] -> 0
  | o :: rest -> if i = 0 then value regs o else arg regs rest (i - 1)

let lib_eval t regs lc args =
  match lc with
  | Ir.Lc_abs -> abs (arg regs args 0)
  | Ir.Lc_min -> min (arg regs args 0) (arg regs args 1)
  | Ir.Lc_max -> max (arg regs args 0) (arg regs args 1)
  | Ir.Lc_hash -> Interp.mix_hash (arg regs args 0)
  | Ir.Lc_log2 -> Interp.ilog2 (arg regs args 0)
  | Ir.Lc_isqrt -> Interp.isqrt (arg regs args 0)
  | Ir.Lc_rand ->
      t.rand_seed <-
        ((t.rand_seed * 2862933555777941757) + 3037000493) land max_int;
      (t.rand_seed lsr 16) land 0x3fffffff
  | Ir.Lc_strcmp ->
      let a = arg regs args 0 and b = arg regs args 1 in
      let len = min (arg regs args 2) 64 in
      let rec go i =
        if i >= len then 0
        else
          let va = Memory.load t.mem (a + i)
          and vb = Memory.load t.mem (b + i) in
          if va <> vb then compare va vb else go (i + 1)
      in
      go 0
  | Ir.Lc_memchr ->
      let base = arg regs args 0 and needle = arg regs args 1 in
      let len = min (arg regs args 2) 256 in
      let rec go i =
        if i >= len then -1
        else if Memory.load t.mem (base + i) = needle then i
        else go (i + 1)
      in
      go 0

(* Close segment [seg]; tolerate unbalanced (mis-compiled) code by
   popping the head instead. *)
let rec remove_seg seg = function
  | [] -> []
  | s :: rest when s = seg -> rest
  | s :: rest -> s :: remove_seg seg rest

let close_segment t seg =
  t.seg_stack <-
    (if List.mem seg t.seg_stack then remove_seg seg t.seg_stack
     else match t.seg_stack with _ :: r -> r | [] -> [])

let uop kind srcs dst = { Uop.kind; srcs; dst; sink = None; meta = 0 }

(* Execute instruction [i] of [fr]'s block. *)
let exec t fr i =
  let b = fr.blk and regs = fr.regs in
  let srcs = Array.unsafe_get (Array.unsafe_get b.d_srcs fr.cls) i in
  let dst = Array.unsafe_get (Array.unsafe_get b.d_dsts fr.cls) i in
  let kind = Array.unsafe_get b.d_kinds i in
  match Array.unsafe_get b.d_instrs i with
  | Ir.Binop (r, op, a, b') ->
      regs.(r) <- Interp.eval_binop op (value regs a) (value regs b');
      uop kind srcs dst
  | Ir.Unop (r, op, a) ->
      regs.(r) <- Interp.eval_unop op (value regs a);
      uop kind srcs dst
  | Ir.Mov (r, a) ->
      regs.(r) <- value regs a;
      uop kind srcs dst
  | Ir.Load (r, ad) ->
      let a = addr_of regs ad in
      observe_mem t ~addr:a ~write:false;
      if t.wait_depth > 0 then begin
        (* shared load: value arrives via the sink *)
        t.status <- Blocked;
        let sink v =
          regs.(r) <- v;
          t.status <- Running
        in
        { Uop.kind = Uop.Shared (Uop.S_load a); srcs; dst; sink = Some sink;
          meta = 0 }
      end
      else begin
        regs.(r) <- Memory.load t.mem a;
        uop (Uop.Load_priv a) srcs dst
      end
  | Ir.Store (ad, v) ->
      let a = addr_of regs ad in
      let v = value regs v in
      observe_mem t ~addr:a ~write:true;
      if t.wait_depth > 0 then uop (Uop.Shared (Uop.S_store (a, v))) srcs dst
      else begin
        Memory.store t.mem a v;
        uop (Uop.Store_priv a) srcs dst
      end
  | Ir.Call (dst_reg, callee, args) ->
      let ci = Array.unsafe_get b.d_callees i in
      let cf =
        if ci >= 0 then t.prog.dp_funcs.(ci) else find_dfunc t.prog callee
      in
      let callee_fr = new_frame cf ~depth:(t.depth + 1) dst_reg in
      bind_operands callee_fr.regs ~caller:regs cf.df_func.Ir.f_params args;
      t.frames <- callee_fr :: t.frames;
      t.depth <- t.depth + 1;
      uop kind srcs dst
  | Ir.Libcall (r, lc, args) ->
      regs.(r) <- lib_eval t regs lc args;
      uop kind srcs dst
  | Ir.Wait seg ->
      t.wait_depth <- t.wait_depth + 1;
      t.seg_stack <- seg :: t.seg_stack;
      uop kind srcs dst
  | Ir.Signal seg ->
      t.wait_depth <- max 0 (t.wait_depth - 1);
      close_segment t seg;
      uop kind srcs dst
  | Ir.Flush | Ir.Nop -> uop kind srcs dst

let enter fr l =
  fr.blk <- block_at fr.df l;
  fr.index <- 0;
  fr.entered <- false

(* Execute at most one instruction; return the uop it produced, if any.
   [None] with status Running means "made progress without a timed uop"
   (e.g. an unconditional jump): the caller loops. *)
let step (t : t) : Uop.t option =
  match t.status with
  | Blocked | Finished _ | Suspended _ -> None
  | Running -> (
      match t.frames with
      | [] ->
          t.status <- Finished None;
          None
      | fr :: outer_frames ->
          let b = fr.blk in
          (* block-entry hook: parallel-loop trigger on the serial core *)
          if (not fr.entered) && fr.index = 0 then begin
            fr.entered <- true;
            if t.stops_at_headers && b.d_header then
              t.status <-
                Suspended
                  { p_func = fr.df.df_func.Ir.f_name; p_header = b.d_label }
          end;
          match t.status with
          | Suspended _ -> None
          | _ ->
              let i = fr.index in
              if i < Array.length b.d_instrs then begin
                fr.index <- i + 1;
                t.retired <- t.retired + 1;
                Some (exec t fr i)
              end
              else begin
                (* terminator *)
                match b.d_term with
                | Ir.Jmp l ->
                    enter fr l;
                    None
                | Ir.Br (c, l1, l2) ->
                    let taken = value fr.regs c <> 0 in
                    enter fr (if taken then l1 else l2);
                    t.retired <- t.retired + 1;
                    Some
                      (uop
                         (if taken then b.d_taken else b.d_not_taken)
                         (Array.unsafe_get b.d_br_srcs fr.cls)
                         None)
                | Ir.Ret o ->
                    let rv =
                      match o with Some o -> Some (value fr.regs o) | None -> None
                    in
                    t.frames <- outer_frames;
                    t.depth <- t.depth - 1;
                    (match (outer_frames, fr.dst_in_caller, rv) with
                    | caller :: _, Some d, Some v -> caller.regs.(d) <- v
                    | caller :: _, Some d, None -> caller.regs.(d) <- 0
                    | _ -> ());
                    if outer_frames = [] then t.status <- Finished rv;
                    None
              end)

(* Pull the next uop, advancing the context as needed. *)
let rec next_uop t =
  match t.status with
  | Blocked | Finished _ | Suspended _ -> None
  | Running -> (
      match step t with
      | Some _ as u -> u
      | None -> ( match t.status with Running -> next_uop t | _ -> None))
