(* Deterministic splitmix64 generator.

   Every stochastic choice in the simulator draws from an explicit [Rng.t]
   so that experiments replay exactly given the same seed. *)

type t = { mutable state : int64 }

let create seed = { state = seed }

let next t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Uniform float in [0, 1). *)
let float t =
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits /. 9007199254740992.0 (* 2^53 *)

(* Uniform int in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be > 0";
  let r = Int64.to_int (next t) land max_int in
  r mod bound

let bool t = Int64.logand (next t) 1L = 1L

(* Split off an independent stream (for per-VM or per-device streams). *)
let split t = create (next t)

(* Exponentially distributed duration with the given mean, in ns. *)
let exponential_ns t ~mean_ns =
  if mean_ns <= 0 then 0
  else
    let u = 1.0 -. float t in
    Time.of_float_ns (-.log u *. float_of_int mean_ns)

(* Pareto-distributed value: P(X > x) = (xm / x)^alpha for x >= xm.
   Heavy-tailed session lengths (alpha <= 2 has infinite variance). *)
let pareto t ~alpha ~xm =
  if alpha <= 0.0 then invalid_arg "Rng.pareto: alpha must be > 0";
  if xm <= 0.0 then invalid_arg "Rng.pareto: xm must be > 0";
  let u = 1.0 -. float t in
  xm /. (u ** (1.0 /. alpha))

(* Uniform duration in [lo, hi]. *)
let uniform_ns t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.uniform_ns: hi < lo";
  lo + int t (hi - lo + 1)
