(* Seqpair layer replay: the symmetric packer against FAST-SP on the
   same seeded symmetric-feasible codes of each Table-I circuit. *)

type row = {
  key : string;
  sym_pack_us : float;  (** mean per symmetric pack *)
  fast_pack_us : float;  (** mean per FAST-SP pack *)
  errors : int;  (** symmetric packs that returned [Error] *)
  codes : int;
}

(* FAST-SP takes microseconds, so each code is packed [fast_repeats]
   times to lift the timed interval well above the clock's resolution. *)
let fast_repeats = 200

(* Symmetric-feasible codes packed per circuit. *)
let codes = 12

let run seed =
  List.mapi
    (fun i (b : Netlist.Benchmarks.bench) ->
      let circuit = b.Netlist.Benchmarks.circuit in
      let groups = Constraints.Symmetry_group.of_hierarchy b.Netlist.Benchmarks.hierarchy in
      let n = Netlist.Circuit.size circuit in
      let rng = Prelude.Rng.create ((seed * 31) + i) in
      let sps = List.init codes (fun _ -> Seqpair.Symmetry.random_feasible rng ~n groups) in
      let dims = Netlist.Circuit.dims circuit in
      let x = Array.make n 0 and y = Array.make n 0 in
      let w = Array.init n (fun c -> fst (dims c)) in
      let h = Array.init n (fun c -> snd (dims c)) in
      let errors = ref 0 in
      let t0 = Unix.gettimeofday () in
      List.iter
        (fun sp ->
          match Seqpair.Symmetry.pack_symmetric_into ~x ~y ~w ~h sp dims groups with
          | Ok () -> ()
          | Error _ -> incr errors)
        sps;
      let sym = Unix.gettimeofday () -. t0 in
      (* the symmetric packer may pad widths; FAST-SP gets the plain ones *)
      Array.iteri (fun c _ -> w.(c) <- fst (dims c)) w;
      let scratch = Seqpair.Pack.scratch n in
      let t1 = Unix.gettimeofday () in
      for _ = 1 to fast_repeats do
        List.iter (fun sp -> Seqpair.Pack.pack_fast_into scratch sp ~w ~h ~x ~y) sps
      done;
      let fast = Unix.gettimeofday () -. t1 in
      {
        key = Workload.circuit_key b.Netlist.Benchmarks.label;
        sym_pack_us = 1e6 *. sym /. float_of_int codes;
        fast_pack_us = 1e6 *. fast /. float_of_int (codes * fast_repeats);
        errors = !errors;
        codes;
      })
    (Netlist.Benchmarks.table1_suite ())
