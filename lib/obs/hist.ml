(* Log-bucketed latency histogram.

   Buckets are powers of two in nanoseconds: bucket i holds samples in
   (2^(i-1), 2^i] (bucket 0 holds [0, 1]), with one overflow bucket
   above 2^40 (~18 minutes).  Only the contiguous range of buckets a
   histogram has hit is stored; the range grows on demand, so a fleet
   of mostly-empty per-(vm, api, phase) histograms stays small.
   Recording is O(1): the bucket comes from a bit scan, and a warmed
   histogram records without allocating.  Quantiles are answered from
   the buckets with linear interpolation inside the winning bucket,
   clamped to the observed min/max. *)

let n_finite = 41 (* finite upper bounds 2^0 .. 2^40 *)
let n_buckets = n_finite + 1 (* plus one overflow bucket *)

let bound i =
  if i < 0 || i >= n_finite then invalid_arg "Hist.bound";
  1 lsl i

(* Smallest bucket whose upper bound holds [v]: ceil(log2 v), i.e. the
   bit length of [v - 1]; the overflow bucket for values above the last
   finite bound. *)
let bucket_index v =
  if v <= 1 then 0
  else if v > 1 lsl (n_finite - 1) then n_finite
  else begin
    let x = ref (v - 1) and len = ref 0 in
    if !x >= 1 lsl 32 then begin x := !x lsr 32; len := 32 end;
    if !x >= 1 lsl 16 then begin x := !x lsr 16; len := !len + 16 end;
    if !x >= 1 lsl 8 then begin x := !x lsr 8; len := !len + 8 end;
    if !x >= 1 lsl 4 then begin x := !x lsr 4; len := !len + 4 end;
    if !x >= 1 lsl 2 then begin x := !x lsr 2; len := !len + 2 end;
    if !x >= 2 then begin x := !x lsr 1; len := !len + 1 end;
    !len + !x
  end

type t = {
  mutable counts : int array; (* counts.(j) is bucket [lo + j] *)
  mutable lo : int; (* meaningless while [counts] is empty *)
  mutable n : int;
  mutable sum : int;
  mutable minimum : int;
  mutable maximum : int;
}

let create () =
  {
    counts = [||];
    lo = 0;
    n = 0;
    sum = 0;
    minimum = max_int;
    maximum = min_int;
  }

(* Widen the stored range to buckets [lo, hi]. *)
let cover t lo hi =
  let len = Array.length t.counts in
  if len = 0 then begin
    t.counts <- Array.make (hi - lo + 1) 0;
    t.lo <- lo
  end
  else if lo < t.lo || hi >= t.lo + len then begin
    let lo' = Stdlib.min lo t.lo and hi' = Stdlib.max hi (t.lo + len - 1) in
    let counts = Array.make (hi' - lo' + 1) 0 in
    Array.blit t.counts 0 counts (t.lo - lo') len;
    t.counts <- counts;
    t.lo <- lo'
  end

let add t v =
  let v = Stdlib.max 0 v in
  let i = bucket_index v in
  cover t i i;
  let j = i - t.lo in
  t.counts.(j) <- t.counts.(j) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum + v;
  if v < t.minimum then t.minimum <- v;
  if v > t.maximum then t.maximum <- v

let count t = t.n
let sum t = float_of_int t.sum
let min_value t = if t.n = 0 then 0 else t.minimum
let max_value t = if t.n = 0 then 0 else t.maximum

let bucket_counts t =
  let full = Array.make n_buckets 0 in
  Array.blit t.counts 0 full t.lo (Array.length t.counts);
  full

let merge ~into src =
  let len = Array.length src.counts in
  if len > 0 then begin
    cover into src.lo (src.lo + len - 1);
    let off = src.lo - into.lo in
    Array.iteri
      (fun j c -> into.counts.(off + j) <- into.counts.(off + j) + c)
      src.counts
  end;
  into.n <- into.n + src.n;
  into.sum <- into.sum + src.sum;
  if src.n > 0 then begin
    if src.minimum < into.minimum then into.minimum <- src.minimum;
    if src.maximum > into.maximum then into.maximum <- src.maximum
  end

(* Buckets outside the stored range are empty, so the walk starts at
   [lo] and always stops inside the range (it holds all [n] samples). *)
let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Hist.quantile: q out of range";
  if t.n = 0 then nan
  else begin
    let target =
      Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int t.n)))
    in
    let rec walk j cum =
      let i = t.lo + j in
      let in_bucket = t.counts.(j) in
      let cum' = cum + in_bucket in
      if cum' < target then walk (j + 1) cum'
      else if i = n_buckets - 1 then float_of_int t.maximum
      else begin
        let lo = if i = 0 then 0.0 else float_of_int (bound (i - 1)) in
        let hi = float_of_int (bound i) in
        let frac =
          if in_bucket = 0 then 1.0
          else float_of_int (target - cum) /. float_of_int in_bucket
        in
        let v = lo +. (frac *. (hi -. lo)) in
        Float.min (Float.max v (float_of_int t.minimum))
          (float_of_int t.maximum)
      end
    in
    walk 0 0
  end

type summary = {
  h_count : int;
  h_sum_ns : float;
  h_mean_ns : float;
  h_min_ns : float;
  h_max_ns : float;
  h_p50_ns : float;
  h_p95_ns : float;
  h_p99_ns : float;
}

let empty_summary =
  {
    h_count = 0;
    h_sum_ns = 0.0;
    h_mean_ns = 0.0;
    h_min_ns = 0.0;
    h_max_ns = 0.0;
    h_p50_ns = 0.0;
    h_p95_ns = 0.0;
    h_p99_ns = 0.0;
  }

let summary t =
  if t.n = 0 then empty_summary
  else
    {
      h_count = t.n;
      h_sum_ns = sum t;
      h_mean_ns = sum t /. float_of_int t.n;
      h_min_ns = float_of_int t.minimum;
      h_max_ns = float_of_int t.maximum;
      h_p50_ns = quantile t 0.5;
      h_p95_ns = quantile t 0.95;
      h_p99_ns = quantile t 0.99;
    }

let pp_summary ppf s =
  Fmt.pf ppf "n=%d mean=%.0fns p50=%.0fns p95=%.0fns max=%.0fns" s.h_count
    s.h_mean_ns s.h_p50_ns s.h_p95_ns s.h_max_ns
