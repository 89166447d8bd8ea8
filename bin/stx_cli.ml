(* Argument converters shared by stx_run, stx_repro and stx_serve, so a
   count or a scale that cannot describe a run is rejected at the command
   line, with one message, before anything is built. *)

open Cmdliner

let pos_int =
  Arg.conv' ~docv:"N"
    ( (fun s ->
        match int_of_string_opt (String.trim s) with
        | Some n when n >= 1 -> Ok n
        | _ -> Error (Printf.sprintf "%S is not a positive integer" s)),
      Format.pp_print_int )

let pos_float =
  Arg.conv' ~docv:"X"
    ( (fun s ->
        match float_of_string_opt (String.trim s) with
        | Some f when Float.is_finite f && f > 0. -> Ok f
        | _ -> Error (Printf.sprintf "%S is not a positive finite number" s)),
      Format.pp_print_float )
