(* Host-speed calibration.

   On a shared host the same pass runs at speeds up to 1.5x apart, in
   phases that last from seconds to minutes: longer than a run, so no
   median inside a run removes them (ten sp-sym-flow runs in a row
   spread by 30%, IQR over median). A fixed loop, timed between the
   units of a pass (jobs, or groups of requests), measures the speed the
   host gives the process at that moment. A unit's time is rescaled by
   [reference_s] over the loop's time around it, which keeps the
   program's own speed and removes most of the host's.

   The loop sorts a fixed integer list: minor-heap allocation, pointer
   chasing and branches, the mix the placers and the router spend their
   time on. It is benchmark code, so a change to the program cannot
   speed it up; only the host can. *)

let data = Array.init 20_000 (fun i -> i * 7919 mod 20_011)

(* About the loop's time on the 2-vCPU VM the benchmark was tuned on
   (medians of 17-21 ms), so rescaled times read as seconds at that
   host's usual speed. *)
let reference_s = 0.020

(* The heap is settled first, untimed: the loop then does not pay for
   the garbage the preceding job left, which made its time swing with
   the job before it, and every job starts from a collected heap. *)
let loop () =
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 6 do
    ignore (Sys.opaque_identity (List.sort compare (Array.to_list data)))
  done;
  Unix.gettimeofday () -. t0

(* Unit [i] of a pass, [raw] seconds long, rescaled by the mean of the
   loop samples taken before and after it: [samples] holds one sample
   before every [every]-th unit and one after the last. *)
let rescale ~every samples i raw =
  let before = samples.(i / every) and after = samples.((i / every) + 1) in
  raw *. reference_s /. ((before +. after) /. 2.0)
