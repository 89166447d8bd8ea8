(* A fixed reference suite that measures how fast the host runs right now.

   On a shared VM the same pass can take 1.6 s in one minute and 2.9 s in
   another: neighbours come and go on the physical core and its caches.
   The suite runs after every cell for about a tenth of the cell's time,
   so it samples the host in the same stretch of time as the cells. Each
   host time of a pass is then scaled by [factor]: the suite's nominal
   time over its measured time in that pass. A host time scaled this way
   reads in reference seconds, the seconds the pass would have taken on a
   host where the suite runs at its nominal speed.

   The suite uses no stx_* code, so a change to the program cannot change
   it. Its six kernels cover the kinds of work the simulator's host time
   is made of: random reads of a warm table, random reads of a table too
   big for the caches, open-addressed hash probes, a branchy interpreter,
   short-lived allocation with Hashtbl updates, and a miniature simulator
   (interpreter, two-level set-associative cache model, per-core read
   sets). *)

(* About the time of one [run] on the 2-vCPU Xeon VM at 2.1 GHz that the
   bounds in BENCHMARK.json were set on. *)
let nominal_ns = 13_000_000

let hash x = (x * 0x9E3779B1) lsr 5

(* The tables live outside the OCaml heap, so that peak_heap_mb and the
   program's GC see none of them. *)
module A = Bigarray.Array1

type table = (int, Bigarray.int_elt, Bigarray.c_layout) A.t

let table n f : table =
  let t = A.create Bigarray.int Bigarray.c_layout n in
  for i = 0 to n - 1 do
    A.unsafe_set t i (f i)
  done;
  t

(* random read-modify-write over [table] *)
let scramble (table : table) steps =
  let mask = A.dim table - 1 in
  let x = ref 12345 in
  for i = 0 to steps - 1 do
    let h = (hash !x + i) land mask in
    let v = table.{h} in
    table.{h} <- v + 1;
    x := (!x lxor v) * 31 + 7
  done

let warm = table (1 lsl 17) hash (* 1 MB *)
let cold = table (1 lsl 20) hash (* 8 MB *)

(* open addressing, linear probing; the table never fills *)
let keys = table (1 lsl 19) (fun _ -> -1)
let vals = table (1 lsl 19) (fun _ -> 0)

let hash_probes steps =
  let mask = A.dim keys - 1 in
  let x = ref 99 in
  for i = 0 to steps - 1 do
    x := (!x * 0x5DEECE66D + 11) land 0xfffffff;
    let key = !x land 0x3ffff in
    let rec probe h = if keys.{h} = key || keys.{h} = -1 then h else probe ((h + 1) land mask) in
    let h = probe (hash key land mask) in
    keys.{h} <- key;
    vals.{h} <- vals.{h} + i
  done

let tbl = Hashtbl.create 1024

let allocation steps =
  for i = 0 to steps - 1 do
    let l = List.init 8 (fun j -> (i, j)) in
    let k = i * 131 land 8191 in
    Hashtbl.replace tbl k (List.length l + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  done

(* The miniature simulator: 16 cores step round robin through one random
   program of 4096 instructions. Loads and stores go through a private
   64-set 8-way cache, a shared 4096-set 16-way cache and the core's read
   set; a commit allocates a log entry and clears the read set. *)
let cores = 16
let mem = table (1 lsl 20) (fun _ -> 0)
let l1 = table (cores * 64 * 8) (fun _ -> -1)
let l2 = table (4096 * 16) (fun _ -> -1)
let rset = table (cores * 1024) (fun _ -> -1)
let regs = Array.make (cores * 8) 1
let pcs = Array.make cores 0
let code = Array.init 4096 (fun i -> hash i lsr 2)

(* the last commits as (core, step, value) *)
let log = Array.make 64 (0, 0, 0)

(* LRU set of [ways] slots at [base]: true on a hit; a miss inserts *)
let probe (set : table) base ways line =
  let rec find i = i < ways && (set.{base + i} = line || find (i + 1)) in
  find 0
  || begin
       for j = ways - 1 downto 1 do
         set.{base + j} <- set.{base + j - 1}
       done;
       set.{base} <- line;
       false
     end

let access core line =
  if not (probe l1 (((core * 64) + (line land 63)) * 8) 8 line) then
    ignore (probe l2 ((line land 4095) * 16) 16 line);
  let base = core * 1024 in
  (* a read set that overflows its probe window is dropped, as on abort *)
  let rec insert h n =
    let v = rset.{base + h} in
    if n = 16 then A.fill (A.sub rset base 1024) (-1)
    else if v = line || v = -1 then rset.{base + h} <- line
    else insert ((h + 1) land 1023) (n + 1)
  in
  insert (hash line land 1023) 0

let mini_sim steps =
  let mmask = A.dim mem - 1 in
  for step = 0 to steps - 1 do
    let c = step land (cores - 1) in
    let pc = pcs.(c) in
    let ins = code.(pc) in
    let a = (c * 8) + ((ins lsr 3) land 7) and b = (c * 8) + ((ins lsr 6) land 7) in
    let next =
      match ins land 7 with
      | 0 ->
        regs.(a) <- regs.(a) + regs.(b);
        pc + 1
      | 1 ->
        regs.(a) <- regs.(a) lxor (regs.(b) * 31);
        pc + 1
      | 2 ->
        let addr = (regs.(b) + (ins lsr 3)) land mmask in
        access c (addr lsr 3);
        regs.(a) <- mem.{addr};
        pc + 1
      | 3 ->
        let addr = ((regs.(a) * 7) + (ins lsr 3)) land mmask in
        access c (addr lsr 3);
        mem.{addr} <- regs.(b);
        pc + 1
      | 4 -> if regs.(a) land 1 = 0 then pc + 2 + ((ins lsr 9) land 7) else pc + 1
      | 5 ->
        log.(step land 63) <- (c, step, regs.(a));
        A.fill (A.sub rset (c * 1024) 1024) (-1);
        pc + 1
      | 6 ->
        regs.(a) <- (regs.(b) lsr 1) + 3;
        pc + 1
      | _ ->
        regs.(b) <- regs.(a) - 1;
        pc + 1
    in
    pcs.(c) <- next land 4095
  done

let interp_code = Array.init 256 (fun i -> i * 7919 mod 6)

let interpreter steps =
  let r = Array.make 16 1 in
  let pc = ref 0 in
  for _ = 1 to steps do
    let a = !pc land 15 and b = (!pc lsr 4) land 15 in
    (match interp_code.(!pc) with
    | 0 -> r.(a) <- r.(a) + r.(b)
    | 1 -> r.(a) <- r.(a) lxor (r.(b) lsl 1)
    | 2 -> if r.(a) land 1 = 0 then pc := (!pc + 3) land 255
    | 3 -> r.(a) <- r.(b) * 3
    | 4 -> if r.(b) land 2 = 0 then pc := (!pc + 5) land 255
    | _ -> r.(b) <- r.(a) - 1);
    pc := (!pc + 1 + (r.(a) land 1)) land 255
  done;
  ignore (Sys.opaque_identity r)

let calls = ref 0

(* One run of the suite, about [nominal_ns]. *)
let run () =
  incr calls;
  scramble warm 60_000;
  scramble cold 10_000;
  hash_probes 30_000;
  interpreter 150_000;
  allocation 2_000;
  mini_sim 60_000;
  ignore (Sys.opaque_identity log)

(* Runs the suite after a cell that took [cell_ns]: once per ten nominal
   runs' worth of the cell, and at least once. *)
let sample ~cell_ns =
  for _ = 1 to max 1 ((cell_ns + (5 * nominal_ns)) / (10 * nominal_ns)) do
    run ()
  done

(* Nominal over measured time of the [calls] runs made since the last
   reset, which took [ns] in all: above 1 on a fast host. *)
let factor ~ns = if ns <= 0 then 1.0 else float_of_int (nominal_ns * !calls) /. float_of_int ns

let reset () = calls := 0
