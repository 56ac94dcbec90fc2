(* Batch statistics used by experiment reports. *)

let mean samples =
  match samples with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 samples /. float_of_int (List.length samples)
