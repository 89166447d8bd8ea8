(* Micro-timings of single layer primitives on fixed inputs: the median
   over [batches] of the mean ns per call within a batch of [n] calls. *)

let batches = 15

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ns_per_call ~n f =
  for i = 0 to n - 1 do
    f i
  done;
  median
    (Array.init batches (fun _ ->
         let t0 = Spans.now_ns () in
         for i = 0 to n - 1 do
           f i
         done;
         float_of_int (Spans.now_ns () - t0) /. float_of_int n))

(* The same primitives the Bechamel suite in bench/main.ml times, plus the
   serve layer's Zipf key sampler, in reference ns: scaled by the host
   speed that two runs of the reference suite measure just before. *)
let all () =
  Calib.reset ();
  let t0 = Spans.now_ns () in
  Calib.run ();
  Calib.run ();
  let speed = Calib.factor ~ns:(Spans.now_ns () - t0) in
  let open Stx_machine in
  let mem = Memory.create () in
  let alloc = Alloc.create ~words_per_line:8 mem in
  let cfg = Config.with_cores 4 Config.default in
  let htm = Stx_htm.Htm.create cfg mem alloc in
  let hier = Hierarchy.create cfg in
  let rng = Stx_util.Rng.create 7 in
  let sv = Lazy.force Cells.memcached in
  let keys = Stx_serve.Keys.create (Stx_serve.Keys.Zipf 0.9) ~range:sv.Stx_workloads.Workload.sv_key_range in
  List.map
    (fun (name, ns) -> (name, ns *. speed))
  [
    ( "htm.tx_ns",
      ns_per_call ~n:20_000 (fun i ->
          let addr = 64 + (i mod 64 * 8) in
          Stx_htm.Htm.tx_begin htm ~core:0;
          ignore (Sys.opaque_identity (Stx_htm.Htm.tx_load htm ~core:0 ~addr ~pc:1));
          Stx_htm.Htm.tx_store htm ~core:0 ~addr ~value:1 ~pc:2;
          ignore (Sys.opaque_identity (Stx_htm.Htm.tx_commit htm ~core:0))) );
    ( "machine.access_ns",
      ns_per_call ~n:20_000 (fun i ->
          ignore (Sys.opaque_identity (Hierarchy.access hier ~core:0 ~line:(i mod 4096) ~write:false)))
    );
    ( "util.rng_ns",
      ns_per_call ~n:200_000 (fun _ -> ignore (Sys.opaque_identity (Stx_util.Rng.next rng))) );
    ( "serve.key_sample_ns",
      ns_per_call ~n:100_000 (fun _ ->
          ignore (Sys.opaque_identity (Stx_serve.Keys.sample keys rng))) );
  ]
