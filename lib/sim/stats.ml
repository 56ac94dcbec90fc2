(* Online and batch statistics used by experiment reports. *)

(* Welford's online mean/variance. *)
module Online = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () =
    { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.n
  let mean t = if t.n = 0 then nan else t.mean

  let variance t =
    if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)

  let stddev t = sqrt (variance t)
  let min t = if t.n = 0 then nan else t.min
  let max t = if t.n = 0 then nan else t.max
end

(* Percentile with linear interpolation over a sample list. *)
let percentile samples p =
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  match samples with
  | [] -> nan
  | _ ->
      let a = Array.of_list samples in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n = 1 then a.(0)
      else
        let rank = p /. 100.0 *. float_of_int (n - 1) in
        let lo = int_of_float (Float.floor rank) in
        let hi = Stdlib.min (lo + 1) (n - 1) in
        let frac = rank -. float_of_int lo in
        a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let mean samples =
  match samples with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 samples /. float_of_int (List.length samples)

let geomean samples =
  match samples with
  | [] -> nan
  | _ ->
      let logsum = List.fold_left (fun acc x -> acc +. log x) 0.0 samples in
      exp (logsum /. float_of_int (List.length samples))

type summary = {
  count : int;
  sum : float;
  avg : float;
  std : float;
  minimum : float;
  maximum : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

(* Percentile over an already-sorted array: shared by [summarize] so the
   samples are converted and sorted once, not once per percentile. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let summarize samples =
  let o = Online.create () in
  List.iter (Online.add o) samples;
  (* One array conversion + sort for all three percentiles; the sum
     falls out of the same pass (same left-to-right order as the list
     fold it replaces, so results are bit-identical). *)
  let a = Array.of_list samples in
  let sum = Array.fold_left ( +. ) 0.0 a in
  Array.sort Float.compare a;
  {
    count = Online.count o;
    sum;
    avg = Online.mean o;
    std = Online.stddev o;
    minimum = Online.min o;
    maximum = Online.max o;
    p50 = percentile_sorted a 50.0;
    p95 = percentile_sorted a 95.0;
    p99 = percentile_sorted a 99.0;
  }

