(* Virtual time for the discrete-event engine.

   All simulated durations and instants are integer nanoseconds.  Using an
   integer keeps event ordering exact and every experiment bit-for-bit
   deterministic. *)

type t = int

let zero = 0
let ns n = n
let us n = 1_000 * n
let ms n = 1_000_000 * n
let s n = 1_000_000_000 * n

(* Fractional durations are rounded to the nearest nanosecond. *)
let of_float_ns f = int_of_float (Float.round f)
let of_float_us f = of_float_ns (f *. 1e3)
let of_float_ms f = of_float_ns (f *. 1e6)
let of_float_s f = of_float_ns (f *. 1e9)

let to_float_ns t = float_of_int t
let to_float_us t = float_of_int t /. 1e3
let to_float_ms t = float_of_int t /. 1e6
let to_float_s t = float_of_int t /. 1e9

let add = ( + )
let max = Stdlib.max

(* Duration of moving [bytes] at [bytes_per_s]; at least 1 ns when any data
   moves so that transfers never appear free. *)
let of_bandwidth ~bytes ~bytes_per_s =
  if bytes <= 0 then 0
  else
    let t = float_of_int bytes /. bytes_per_s *. 1e9 in
    Stdlib.max 1 (of_float_ns t)

let pp ppf t =
  if t >= s 1 then Fmt.pf ppf "%.3fs" (to_float_s t)
  else if t >= ms 1 then Fmt.pf ppf "%.3fms" (to_float_ms t)
  else if t >= us 1 then Fmt.pf ppf "%.3fus" (to_float_us t)
  else Fmt.pf ppf "%dns" t

let to_string t = Fmt.str "%a" pp t
