(* Host-time spans around the benchmark's calls into the stx_* layers.

   Every timed region goes through [time] (or, for the per-event observer
   handlers, [wrap_handler]). An untraced pass only sums each region's
   duration by name; a traced pass also keeps one span per call — name,
   start, end, parent — in flat Bigarrays, so recording a handler call
   costs a clock read and three stores, not an allocation. *)

module A1 = Bigarray.Array1

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type buf = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t

let buf n : buf = A1.create Bigarray.int Bigarray.c_layout n

type t = {
  traced : bool;
  mutable names : string array;  (* name id -> name *)
  ids : (string, int) Hashtbl.t;
  mutable totals : int array;  (* name id -> summed ns this pass *)
  mutable n : int;
  mutable start : buf;
  mutable stop : buf;
  mutable meta : buf;  (* name id lor (parent + 1) lsl 8; parent -1 = root *)
  mutable stack : int list;  (* open spans, innermost first *)
}

let create ~traced =
  {
    traced;
    names = [||];
    ids = Hashtbl.create 32;
    totals = [||];
    n = 0;
    start = buf 0;
    stop = buf 0;
    meta = buf 0;
    stack = [];
  }

let id t name =
  match Hashtbl.find_opt t.ids name with
  | Some i -> i
  | None ->
    let i = Array.length t.names in
    if i >= 256 then invalid_arg "Spans: too many span names";
    Hashtbl.add t.ids name i;
    t.names <- Array.append t.names [| name |];
    t.totals <- Array.append t.totals [| 0 |];
    i

let grow t =
  let cap = max 4096 (2 * A1.dim t.start) in
  let re old =
    let b = buf cap in
    A1.blit old (A1.sub b 0 (A1.dim old));
    b
  in
  t.start <- re t.start;
  t.stop <- re t.stop;
  t.meta <- re t.meta

let parent t = match t.stack with p :: _ -> p | [] -> -1

(* Records a span that starts at [t0] under the innermost open span and
   returns its index; its end is stored once known. *)
let open_span t nid t0 =
  if t.n = A1.dim t.start then grow t;
  let i = t.n in
  A1.unsafe_set t.start i t0;
  A1.unsafe_set t.stop i t0;
  A1.unsafe_set t.meta i (nid lor ((parent t + 1) lsl 8));
  t.n <- i + 1;
  i

let time t name f =
  let nid = id t name in
  let t0 = now_ns () in
  let i =
    if t.traced then begin
      let i = open_span t nid t0 in
      t.stack <- i :: t.stack;
      i
    end
    else -1
  in
  let finish () =
    let t1 = now_ns () in
    t.totals.(nid) <- t.totals.(nid) + (t1 - t0);
    if t.traced then begin
      A1.unsafe_set t.stop i t1;
      t.stack <- List.tl t.stack
    end
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* The handler as given when untraced; traced, each call becomes a span
   whose parent is the span open around the simulator run. *)
let wrap_handler t name (h : time:int -> Stx_sim.Machine.event -> unit) =
  if not t.traced then h
  else
    let nid = id t name in
    fun ~time ev ->
      let t0 = now_ns () in
      h ~time ev;
      let t1 = now_ns () in
      let i = open_span t nid t0 in
      A1.unsafe_set t.stop i t1;
      t.totals.(nid) <- t.totals.(nid) + (t1 - t0)

let count t = t.n

(* Summed ns of every region named [name] since the last [reset]. *)
let total_ns t name =
  match Hashtbl.find_opt t.ids name with Some i -> t.totals.(i) | None -> 0

let reset t =
  Array.fill t.totals 0 (Array.length t.totals) 0;
  t.n <- 0;
  t.stack <- []

(* The layer of a span is its name up to the first dot. *)
let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time per layer, in ns: each span's duration minus the durations of
   its direct children, summed over the spans of the layer. *)
let self_ns t =
  let child = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = (A1.get t.meta i lsr 8) - 1 in
    if p >= 0 then child.(p) <- child.(p) + (A1.get t.stop i - A1.get t.start i)
  done;
  let acc = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let l = layer t.names.(A1.get t.meta i land 0xff) in
    let self = A1.get t.stop i - A1.get t.start i - child.(i) in
    Hashtbl.replace acc l (self + Option.value ~default:0 (Hashtbl.find_opt acc l))
  done;
  acc

(* The spans in a compact binary form: a text header line naming the span
   ids ("stxbench-spans-v1 name0 name1 ..."), then per span, in recording
   order, four LEB128 varints: name id, distance back to the parent span
   (0 for a root), start minus the previous span's start (starts never
   decrease in recording order), and duration, all in ns. *)
let write t ~file =
  let b = Buffer.create (1 lsl 20) in
  Buffer.add_string b (String.concat " " ("stxbench-spans-v1" :: Array.to_list t.names));
  Buffer.add_char b '\n';
  let rec varint v =
    if v < 0x80 then Buffer.add_char b (Char.chr v)
    else begin
      Buffer.add_char b (Char.chr (v land 0x7f lor 0x80));
      varint (v lsr 7)
    end
  in
  let prev = ref (if t.n > 0 then A1.get t.start 0 else 0) in
  for i = 0 to t.n - 1 do
    let m = A1.get t.meta i and s = A1.get t.start i in
    let p = (m lsr 8) - 1 in
    varint (m land 0xff);
    varint (if p < 0 then 0 else i - p);
    varint (s - !prev);
    varint (A1.get t.stop i - s);
    prev := s
  done;
  let oc = open_out_bin file in
  Buffer.output_buffer oc b;
  close_out oc
