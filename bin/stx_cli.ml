(* The typed command-line boundary shared by stx_run, stx_repro and
   stx_serve: every domain-valued flag goes through one of these
   converters, so a value that cannot describe a run is refused by
   cmdliner (one-line message, exit 124) before anything is built. Each
   converter is made from the library's own of_string/to_string pair, so
   help defaults print in the canonical spelling. *)

open Cmdliner
open Stx_workloads
module Mode = Stx_core.Mode

let conv_of parse print =
  Arg.conv' (parse, fun ppf v -> Format.pp_print_string ppf (print v))

(* for library parsers whose messages do not name the rejected value *)
let quoting parse s = Result.map_error (Printf.sprintf "%S: %s" s) (parse s)

let bounded_int ~what ok =
  conv_of
    (fun s ->
      match int_of_string_opt (String.trim s) with
      | Some n when ok n -> Ok n
      | _ -> Error (Printf.sprintf "%S is not %s" s what))
    string_of_int

let pos_int = bounded_int ~what:"a positive integer" (fun n -> n >= 1)

let percent =
  bounded_int ~what:"a percentage in 0..100" (fun n -> n >= 0 && n <= 100)

let parse_pos_float s =
  match float_of_string_opt (String.trim s) with
  | Some f when Float.is_finite f && f > 0. -> Ok f
  | _ -> Error (Printf.sprintf "%S is not a positive finite number" s)

let pos_float = Arg.conv' (parse_pos_float, Format.pp_print_float)

(* a comma-separated list, never empty; the first bad element is reported *)
let parse_list parse s =
  List.fold_right
    (fun x acc -> Result.bind (parse x) (fun v -> Result.map (List.cons v) acc))
    (String.split_on_char ',' s) (Ok [])

(* offered rates, printed as typed (2,6,10,14) *)
let rates =
  conv_of (parse_list parse_pos_float) (fun rs ->
      String.concat "," (List.map (Printf.sprintf "%g") rs))

let mode_names = String.concat " | " (List.map Mode.to_string Mode.all)
let mode_doc = "Runtime mode: " ^ mode_names ^ "."

let mode =
  conv_of
    (fun s ->
      match Mode.of_string s with
      | Some m -> Ok m
      | None ->
        Error (Printf.sprintf "unknown mode %S (expected %s)" s mode_names))
    Mode.to_string

let name_of w = w.Workload.name

let find_bench s =
  match Registry.find s with
  | Some w -> Ok w
  | None ->
    Error
      (Printf.sprintf "unknown benchmark %S (one of %s)" s
         (String.concat ", " Registry.names))

let bench = conv_of find_bench name_of

(* "all", or a comma-separated list; "all" is also how Registry.all prints *)
let benches =
  conv_of
    (function "all" -> Ok Registry.all | s -> parse_list find_bench s)
    (fun ws ->
      let names = List.map name_of ws in
      if names = Registry.names then "all" else String.concat "," names)

let service =
  conv_of
    (fun s ->
      match Registry.find_service s with
      | Some sv -> Ok sv
      | None ->
        Error
          (Printf.sprintf "unknown service %S (one of %s)" s
             (String.concat ", " Registry.service_names)))
    (fun s -> name_of s.Workload.sv_bench)

let keys = Stx_serve.Keys.(conv_of (quoting of_string) to_string)
let arrival = Stx_serve.Arrival.(conv_of (quoting of_string) to_string)
let shard_by = Stx_serve.Serve.(conv_of shard_by_of_string shard_by_to_string)

(* the three policy axes, declared once for every binary *)
let policy_term =
  let open Stx_policy in
  let axis name ~doc (parse, print) default =
    Arg.(value & opt (conv_of parse print) default & info [ name ] ~doc)
  in
  let resolution =
    axis "policy"
      ~doc:
        "Conflict-resolution policy: $(b,requester-wins) (the paper's \
         hardware), $(b,responder-wins) (suicide on conflict with an \
         established owner), or $(b,timestamp) (karma: the older \
         transaction wins)."
      Resolution.(of_string, to_string)
      default.resolution
  in
  let capacity =
    axis "capacity"
      ~doc:
        "HTM capacity policy: $(b,unbounded), or $(b,bounded:R:W) for a hard \
         limit of R read-set and W write-set cache lines (exceeding either \
         aborts with the capacity reason and goes straight to the \
         irrevocable fallback)."
      Capacity.(of_string, to_string)
      default.capacity
  in
  let fallback =
    axis "fallback"
      ~doc:
        "Fallback policy: $(b,polite[:N]) (linear polite delay, irrevocable \
         after N attempts), $(b,backoff[:N[:BASE[:MAXEXP[:SEED]]]]) \
         (exponential randomized backoff from a dedicated PRNG stream), or \
         $(b,htm-stm-lock[:N[:S]]) (alias $(b,stm)) — N hardware attempts, \
         then a TL2-style software tier for S attempts, then the global \
         lock."
      Fallback.(of_string, to_string)
      default.fallback
  in
  Term.(
    const (fun resolution capacity fallback ->
        make ~resolution ~capacity ~fallback ())
    $ resolution $ capacity $ fallback)
