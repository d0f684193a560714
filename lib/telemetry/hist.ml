(* Log-bucketed histogram.

   Bucket i holds values rounded to the nearest power of
   gamma = 2^(1/sub): index(v) = round(sub * log2 v) + offset. With
   sub = 4 a bucket spans ~19% of its value, so any quantile read back
   from the buckets is within ~9% of the exact sample quantile —
   plenty for latency distributions, and the fixed bucket layout makes
   merging two histograms a bucket-wise add (associative and
   commutative, see the merge tests). Non-positive values land in a
   dedicated zero bucket; out-of-range magnitudes clamp to the first
   or last bucket. *)

let sub = 4
let offset = 128 (* bucket 0 represents 2^-32 *)
let nbuckets = 512 (* buckets reach 2^96 *)

type t = {
  name : string;
  live : bool;
  counts : int array;
  mutable zero : int; (* observations <= 0 *)
  mutable total : int;
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
}

let null =
  {
    name = "";
    live = false;
    counts = [||];
    zero = 0;
    total = 0;
    sum = 0.0;
    minv = infinity;
    maxv = neg_infinity;
  }

let make name =
  {
    name;
    live = true;
    counts = Array.make nbuckets 0;
    zero = 0;
    total = 0;
    sum = 0.0;
    minv = infinity;
    maxv = neg_infinity;
  }

let name t = t.name
let live t = t.live

let bucket_of v =
  let i = offset + int_of_float (Float.round (float_of_int sub *. Float.log2 v)) in
  if i < 0 then 0 else if i >= nbuckets then nbuckets - 1 else i

let repr i = Float.exp2 (float_of_int (i - offset) /. float_of_int sub)

let observe t v =
  if t.live then begin
    (if v <= 0.0 then t.zero <- t.zero + 1
     else
       let i = bucket_of v in
       t.counts.(i) <- t.counts.(i) + 1);
    t.total <- t.total + 1;
    t.sum <- t.sum +. v;
    if v < t.minv then t.minv <- v;
    if v > t.maxv then t.maxv <- v
  end

let count t = t.total
let sum t = t.sum
let mean t = if t.total = 0 then 0.0 else t.sum /. float_of_int t.total
let min_value t = if t.total = 0 then 0.0 else t.minv
let max_value t = if t.total = 0 then 0.0 else t.maxv

let merge dst src =
  if dst.live && src.live then begin
    Array.iteri (fun i c -> if c > 0 then dst.counts.(i) <- dst.counts.(i) + c) src.counts;
    dst.zero <- dst.zero + src.zero;
    dst.total <- dst.total + src.total;
    dst.sum <- dst.sum +. src.sum;
    if src.minv < dst.minv then dst.minv <- src.minv;
    if src.maxv > dst.maxv then dst.maxv <- src.maxv
  end

let quantile t q =
  if t.total = 0 then 0.0
  else begin
    let pts = ref [] in
    if t.zero > 0 then pts := (0.0, t.zero) :: !pts;
    Array.iteri (fun i c -> if c > 0 then pts := (repr i, c) :: !pts) t.counts;
    (* bucket representatives can lie outside the observed range (a
       lone 1.1 reads back as 2^(1/4) = 1.19); no percentile may
       report a value that was never reached *)
    Float.min t.maxv
      (Float.max t.minv (Prelude.Stats.quantile_weighted !pts q))
  end
