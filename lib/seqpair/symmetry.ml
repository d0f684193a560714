open Geometry

type group = Constraints.Symmetry_group.t

module G = Constraints.Symmetry_group

let is_feasible sp (g : group) =
  let members = G.members g in
  let apos c = Perm.pos_of sp.Sp.alpha c in
  let bpos c = Perm.pos_of sp.Sp.beta c in
  let sym c = Option.get (G.sym g c) in
  List.for_all
    (fun x ->
      List.for_all
        (fun y ->
          x = y || Bool.equal (apos x < apos y) (bpos (sym y) < bpos (sym x)))
        members)
    members

let is_feasible_all sp groups = List.for_all (is_feasible sp) groups

let factorial n =
  let rec go acc k =
    if k <= 1 then acc
    else begin
      if acc > max_int / k then
        invalid_arg "Symmetry.count_upper_bound: overflow";
      go (acc * k) (k - 1)
    end
  in
  go 1 n

let checked_mul a b =
  if a <> 0 && b <> 0 && a > max_int / b then
    invalid_arg "Symmetry.count_upper_bound: overflow"
  else a * b

let count_upper_bound ~n groups =
  let num = factorial n in
  let den =
    List.fold_left
      (fun acc g -> checked_mul acc (factorial (G.cardinal g)))
      1 groups
  in
  (* (n!)^2 / prod: n! is divisible by the m! product of disjoint
     groups (multinomial coefficient), so dividing first is exact and
     delays overflow; the final multiply is checked so the bound
     raises instead of wrapping. *)
  checked_mul (num / den) num

(* Enumerate permutations of 0..n-1 as arrays. *)
let all_perms n =
  let rec go acc prefix remaining =
    match remaining with
    | [] -> Array.of_list (List.rev prefix) :: acc
    | _ ->
        List.fold_left
          (fun acc c ->
            go acc (c :: prefix) (List.filter (fun d -> d <> c) remaining))
          acc remaining
  in
  go [] [] (List.init n Fun.id)

let count_exhaustive ~n groups =
  let perms = all_perms n |> List.map Perm.of_array |> Array.of_list in
  let count = ref 0 in
  Array.iter
    (fun alpha ->
      Array.iter
        (fun beta ->
          let sp = Sp.make ~alpha ~beta in
          if is_feasible_all sp groups then incr count)
        perms)
    perms;
  !count

(* Property (1) says: in beta, the group members appear exactly in
   decreasing alpha-position of their symmetric counterparts. Each
   group's members are refilled into the beta positions they hold,
   group after group, on one copy of beta whose inverse is kept current
   (the S-F move repairs with this on every rejected proposal). *)
let make_feasible sp groups =
  let n = Sp.size sp in
  let order = Array.init n (Perm.cell_at sp.Sp.beta) in
  let pos = Array.init n (Perm.pos_of sp.Sp.beta) in
  List.iter
    (fun (g : group) ->
      let members = G.members g in
      let sorted =
        List.sort
          (fun u v ->
            Int.compare
              (Perm.pos_of sp.Sp.alpha (Option.get (G.sym g v)))
              (Perm.pos_of sp.Sp.alpha (Option.get (G.sym g u))))
          members
      in
      let slots = List.sort Int.compare (List.map (fun c -> pos.(c)) members) in
      List.iter2
        (fun p c ->
          order.(p) <- c;
          pos.(c) <- p)
        slots sorted)
    groups;
  Sp.make ~alpha:sp.Sp.alpha ~beta:(Perm.of_array order)

let random_feasible rng ~n groups =
  make_feasible (Sp.random rng n) groups

(* ------------------------------------------------------------------ *)
(* Symmetric packing: coupled constraint-graph fixpoint.               *)

let axis2_of placed (g : group) =
  let rect c =
    List.find_map
      (fun (p : Transform.placed) -> if p.cell = c then Some p.rect else None)
      placed
  in
  let pair_axes =
    List.map
      (fun (a, b) ->
        match (rect a, rect b) with
        | Some ra, Some rb
          when ra.Rect.w = rb.Rect.w && ra.Rect.h = rb.Rect.h
               && ra.Rect.y = rb.Rect.y ->
            Some (ra.Rect.x + rb.Rect.x + ra.Rect.w)
        | _ -> None)
      g.G.pairs
  in
  let self_axes =
    List.map
      (fun f ->
        Option.map (fun (r : Rect.t) -> (2 * r.Rect.x) + r.Rect.w) (rect f))
      g.G.selfs
  in
  match pair_axes @ self_axes with
  | Some a :: rest when List.for_all (fun x -> x = Some a) rest -> Some a
  | [] | Some _ :: _ | None :: _ -> None

exception Infeasible of string
exception Diverged

(* Axes grow geometrically on some diverging codes and would wrap
   around 63-bit integers well before the x cap. An axis beyond this
   limit (a layout 10^18 grid units wide) counts as divergence: every
   coordinate is then at most the largest axis plus the summed widths,
   so no sum the packer forms can overflow. *)
let coord_limit = max_int / 8

(* Reusable workspace of the packer. Cell-indexed arrays are sized
   once; the group tables are flattened per pack: group [gi] owns the
   pairs [pstart.(gi) .. pstart.(gi+1) - 1] and the self-symmetric
   cells [sstart.(gi) .. sstart.(gi+1) - 1], so its members occupy
   [2 * pstart.(gi) + sstart.(gi) ..] of [members] once bucketed. *)
type tables = {
  pstart : int array;  (* group-indexed, one extra slot *)
  sstart : int array;
  axis2 : int array;  (* doubled axis of each group *)
  cursor : int array;  (* bucketing cursor, then "island placed" flag *)
  iw : int array;  (* island extents *)
  ih : int array;
  ibeta : int array;  (* first beta position of the group *)
}

type scratch = {
  capacity : int;
  bit : Bit.t;  (* prefix maxima over beta positions *)
  alpha : int array;  (* cells in alpha order *)
  bpos : int array;  (* cell -> beta position, the Fenwick index *)
  dw : int array;  (* unpadded dimensions *)
  dh : int array;
  group_of : int array;  (* cell -> group index, -1 for free cells *)
  pl : int array;  (* pairs oriented left/right *)
  pr : int array;
  pa : int array;  (* the same pairs as listed *)
  pb : int array;
  sf : int array;  (* self-symmetric cells *)
  members : int array;  (* group members, bucketed by group *)
  iota : int array;  (* identity order of the reduced code *)
  reduced : int array;  (* reduced code: free cell c or island n + gi *)
  rbpos : int array;
  rx : int array;
  ry : int array;
  rw : int array;
  rh : int array;
  mutable tables : tables;
}

let tables groups =
  let a () = Array.make (groups + 1) 0 in
  {
    pstart = a ();
    sstart = a ();
    axis2 = a ();
    cursor = a ();
    iw = a ();
    ih = a ();
    ibeta = a ();
  }

let scratch capacity =
  let capacity = max 1 capacity in
  let a () = Array.make capacity 0 in
  {
    capacity;
    bit = Bit.create capacity;
    alpha = a ();
    bpos = a ();
    dw = a ();
    dh = a ();
    group_of = a ();
    pl = a ();
    pr = a ();
    pa = a ();
    pb = a ();
    sf = a ();
    members = a ();
    iota = Array.init capacity Fun.id;
    reduced = a ();
    rbpos = a ();
    rx = a ();
    ry = a ();
    rw = a ();
    rh = a ();
    tables = tables 8;
  }

(* Check the code and the groups, fill dimensions (self-symmetric widths
   padded to their group's parity, so an exact integer axis exists) and
   flatten the groups into the scratch tables. Returns the group count.
   Errors are raised in the order the groups and pairs are listed. *)
let prepare s ~w ~h sp dims groups =
  let n = Sp.size sp in
  if not (is_feasible_all sp groups) then
    raise (Infeasible "sequence-pair is not symmetric-feasible");
  for c = 0 to n - 1 do
    let cw, ch = dims c in
    s.dw.(c) <- cw;
    s.dh.(c) <- ch;
    w.(c) <- cw;
    h.(c) <- ch;
    s.alpha.(c) <- Perm.cell_at sp.Sp.alpha c;
    s.bpos.(c) <- Perm.pos_of sp.Sp.beta c;
    s.group_of.(c) <- -1
  done;
  let ng = List.length groups in
  if ng >= Array.length s.tables.pstart then s.tables <- tables (2 * ng);
  let t = s.tables in
  let claim gi c =
    if s.group_of.(c) >= 0 then
      raise
        (Infeasible (Printf.sprintf "cell %d is in two symmetry groups" c));
    s.group_of.(c) <- gi
  in
  let p = ref 0 in
  List.iteri
    (fun gi (g : group) ->
      t.pstart.(gi) <- !p;
      List.iter
        (fun (a, b) ->
          claim gi a;
          claim gi b;
          if w.(a) <> w.(b) || h.(a) <> h.(b) then
            raise
              (Infeasible (Printf.sprintf "pair (%d,%d) dimension mismatch" a b));
          let l, r =
            match Sp.relation sp a b with
            | Sp.Left_of -> (a, b)
            | Sp.Right_of -> (b, a)
            | Sp.Below | Sp.Above ->
                raise
                  (Infeasible
                     (Printf.sprintf "pair (%d,%d) vertically related; not S-F"
                        a b))
          in
          s.pa.(!p) <- a;
          s.pb.(!p) <- b;
          s.pl.(!p) <- l;
          s.pr.(!p) <- r;
          incr p)
        g.G.pairs)
    groups;
  t.pstart.(ng) <- !p;
  let k = ref 0 in
  List.iteri
    (fun gi (g : group) ->
      t.sstart.(gi) <- !k;
      match g.G.selfs with
      | [] -> ()
      | first :: _ ->
          let parity = w.(first) land 1 in
          List.iter
            (fun f ->
              claim gi f;
              if w.(f) land 1 <> parity then w.(f) <- w.(f) + 1;
              s.sf.(!k) <- f;
              incr k)
            g.G.selfs)
    groups;
  t.sstart.(ng) <- !k;
  ng

(* One longest-path sweep over [order.(lo .. hi-1)]: alpha order for
   the left-of (x) sweeps, reverse alpha order with [rev] for the below
   (y) sweeps; either way a cell's predecessors are the cells earlier
   in the sweep with a smaller beta position. Each cell rises to the
   largest [coord + extent] over its predecessors, values already
   raised in this sweep included. That maximum is a prefix maximum over
   beta positions, kept in the Fenwick tree exactly as FAST-SP does
   ({!Pack.pack_fast_into}), so a pass costs O(len log n) instead of
   the O(len^2) double loop. True if anything rose. *)
let propagate bit bp order lo hi ~rev coord extent =
  Bit.clear bit;
  let changed = ref false in
  for t = lo to hi - 1 do
    let b = order.(if rev then lo + hi - 1 - t else t) in
    let p = bp.(b) in
    let need = Bit.prefix_max bit (p - 1) in
    if coord.(b) < need then begin
      coord.(b) <- need;
      changed := true
    end;
    Bit.update bit p (coord.(b) + extent.(b))
  done;
  !changed

(* Raise each group's doubled axis to what its cells need (rounded to
   the self-symmetric parity), then move right pair cells and
   self-symmetric cells onto it. *)
let lift_x s ~x ~w g0 g1 =
  let t = s.tables in
  let changed = ref false in
  for gi = g0 to g1 - 1 do
    let p0 = t.pstart.(gi) and p1 = t.pstart.(gi + 1) in
    let s0 = t.sstart.(gi) and s1 = t.sstart.(gi + 1) in
    let need = ref t.axis2.(gi) in
    for k = p0 to p1 - 1 do
      let l = s.pl.(k) and r = s.pr.(k) in
      need := Int.max !need (x.(l) + x.(r) + w.(l))
    done;
    for k = s0 to s1 - 1 do
      let f = s.sf.(k) in
      need := Int.max !need ((2 * x.(f)) + w.(f))
    done;
    if s1 > s0 && !need land 1 <> w.(s.sf.(s0)) land 1 then incr need;
    let a2 = !need in
    if a2 > coord_limit then raise Diverged;
    t.axis2.(gi) <- a2;
    for k = p0 to p1 - 1 do
      let l = s.pl.(k) and r = s.pr.(k) in
      let v = a2 - x.(l) - w.(l) in
      if v <> x.(r) then begin
        (* v >= x.(r) by construction of a2 *)
        x.(r) <- v;
        changed := true
      end
    done;
    for k = s0 to s1 - 1 do
      let f = s.sf.(k) in
      let v = (a2 - w.(f)) / 2 in
      if v <> x.(f) then begin
        x.(f) <- v;
        changed := true
      end
    done
  done;
  !changed

(* Put both cells of each pair on the higher one's row. *)
let lift_y s ~y p0 p1 =
  let changed = ref false in
  for k = p0 to p1 - 1 do
    let l = s.pl.(k) and r = s.pr.(k) in
    if y.(l) <> y.(r) then begin
      let m = Int.max y.(l) y.(r) in
      y.(l) <- m;
      y.(r) <- m;
      changed := true
    end
  done;
  !changed

(* One phase of the coupled fixpoint: a Fenwick longest-path sweep
   followed by [lift], repeated until a pass changes nothing;
   [Diverged] once [limit] passes in a row have all changed
   something. *)
let phase s order lo hi ~rev ~limit coord extent lift =
  let rec go k =
    if k >= limit then raise Diverged
    else
      let a = propagate s.bit s.bpos order lo hi ~rev coord extent in
      let b = lift () in
      if a || b then go (k + 1)
  in
  go 0

(* Minimal coupled packing of the cells [order.(lo .. hi-1)] (in alpha
   order) under groups [g0 .. g1-1]: longest-path lower bounds
   alternating with per-group axis lifting, [w]/[h] already filled.
   Free cells may interleave with group cells, but the monotone
   iteration cannot inject slack on the left cells, so certain
   cross-pair chains make the axis grow without bound; those raise
   [Diverged] and the caller falls back to symmetry-island segregation.

   The two phases share no state (y, h and the pairs for y; x, w and
   the axes for x), so their order changes no coordinate and the
   outcome is Diverged if either diverges. y runs first because it has
   an exact bound. It is a pure difference-constraint system: each
   below-edge a -> b has weight h(a) > 0 and each pair is two edges of
   weight 0 (y(l) = y(r)). Starting from 0, every update stays below
   the least solution if one exists. A pass relaxes all below-edges in
   topological order (reverse alpha) and then every pair edge once, so
   after pass k every path with fewer than k pair edges is realized. A
   simple path uses each of the P pairs at most once, hence a least
   solution is reached within P + 1 changing passes; a pass P + 2 that
   still changes proves a positive cycle, i.e. divergence. The x phase
   also lifts axes with parity rounding, has no bound of that kind and
   keeps the historical cap of 10 (cells + groups) + 21 passes
   (converged x runs take over a hundred passes on the larger Table-I
   circuits). *)
let coupled s ~x ~y ~w ~h order lo hi g0 g1 =
  for k = lo to hi - 1 do
    let c = order.(k) in
    x.(c) <- 0;
    y.(c) <- 0
  done;
  let t = s.tables in
  Array.fill t.axis2 g0 (g1 - g0) 0;
  let p0 = t.pstart.(g0) and p1 = t.pstart.(g1) in
  phase s order lo hi ~rev:true ~limit:(p1 - p0 + 2) y h (fun () ->
      lift_y s ~y p0 p1);
  phase s order lo hi ~rev:false
    ~limit:((10 * (hi - lo + g1 - g0)) + 21)
    x w
    (fun () -> lift_x s ~x ~w g0 g1)

(* Terminal fallback for one group: rows of mirrored pairs (in listed
   order) around a column of self-symmetric cells padded to even widths
   -- always symmetric and overlap-free, never minimal. *)
let stacked s ~x ~y ~w ~h gi =
  let t = s.tables in
  let p0 = t.pstart.(gi) and p1 = t.pstart.(gi + 1) in
  let s0 = t.sstart.(gi) and s1 = t.sstart.(gi + 1) in
  let pad v = v + (v land 1) in
  let max_self_w = ref 0 and max_pair_w = ref 0 in
  for k = s0 to s1 - 1 do
    max_self_w := Int.max !max_self_w (pad s.dw.(s.sf.(k)))
  done;
  for k = p0 to p1 - 1 do
    max_pair_w := Int.max !max_pair_w s.dw.(s.pa.(k))
  done;
  (* axis2 is even: selfs are padded to even widths *)
  let axis = Int.max ((!max_self_w + 1) / 2) !max_pair_w in
  let row = ref 0 in
  let put c ~cx ~cw ~ch =
    x.(c) <- cx;
    y.(c) <- !row;
    w.(c) <- cw;
    h.(c) <- ch
  in
  for k = p0 to p1 - 1 do
    let a = s.pa.(k) in
    let cw = s.dw.(a) and ch = s.dh.(a) in
    put a ~cx:(axis - cw) ~cw ~ch;
    put s.pb.(k) ~cx:axis ~cw ~ch;
    row := !row + ch
  done;
  for k = s0 to s1 - 1 do
    let f = s.sf.(k) in
    let cw = pad s.dw.(f) and ch = s.dh.(f) in
    put f ~cx:(axis - (cw / 2)) ~cw ~ch;
    row := !row + ch
  done

(* Segregated fallback: each group packed as a symmetry island from its
   own sub-sequence-pair, then the reduced sequence-pair (islands as
   super-cells at their group's first occurrence in each sequence)
   packed FAST-SP style. Loses free-cell interleaving inside island
   bounding boxes, keeps everything else. The sub-codes need no
   relabelling: restricting the alpha order and comparing global beta
   positions orders the cells exactly as the restricted code would. *)
let segregate s ~x ~y ~w ~h n ng =
  let t = s.tables in
  let first gi = (2 * t.pstart.(gi)) + t.sstart.(gi) in
  for gi = 0 to ng - 1 do
    t.cursor.(gi) <- first gi;
    t.ibeta.(gi) <- n
  done;
  for k = 0 to n - 1 do
    let c = s.alpha.(k) in
    let gi = s.group_of.(c) in
    if gi >= 0 then begin
      s.members.(t.cursor.(gi)) <- c;
      t.cursor.(gi) <- t.cursor.(gi) + 1;
      t.ibeta.(gi) <- Int.min t.ibeta.(gi) s.bpos.(c)
    end
  done;
  (* 1. islands, normalized to the origin *)
  for gi = 0 to ng - 1 do
    let lo = first gi and hi = first (gi + 1) in
    (match coupled s ~x ~y ~w ~h s.members lo hi gi (gi + 1) with
    | () -> ()
    | exception Diverged -> stacked s ~x ~y ~w ~h gi);
    let x0 = ref max_int and y0 = ref max_int in
    let x1 = ref min_int and y1 = ref min_int in
    for k = lo to hi - 1 do
      let c = s.members.(k) in
      x0 := Int.min !x0 x.(c);
      y0 := Int.min !y0 y.(c);
      x1 := Int.max !x1 (x.(c) + w.(c));
      y1 := Int.max !y1 (y.(c) + h.(c))
    done;
    for k = lo to hi - 1 do
      let c = s.members.(k) in
      x.(c) <- x.(c) - !x0;
      y.(c) <- y.(c) - !y0
    done;
    t.iw.(gi) <- (if hi > lo then !x1 - !x0 else 0);
    t.ih.(gi) <- (if hi > lo then !y1 - !y0 else 0);
    t.cursor.(gi) <- 0
  done;
  (* 2. the reduced code in alpha order *)
  let len = ref 0 in
  let add item ~bp ~iw ~ih =
    s.reduced.(!len) <- item;
    s.rbpos.(!len) <- bp;
    s.rw.(!len) <- iw;
    s.rh.(!len) <- ih;
    s.rx.(!len) <- 0;
    s.ry.(!len) <- 0;
    incr len
  in
  for k = 0 to n - 1 do
    let c = s.alpha.(k) in
    let gi = s.group_of.(c) in
    if gi < 0 then add c ~bp:s.bpos.(c) ~iw:s.dw.(c) ~ih:s.dh.(c)
    else if t.cursor.(gi) = 0 then begin
      t.cursor.(gi) <- 1;
      add (n + gi) ~bp:t.ibeta.(gi) ~iw:t.iw.(gi) ~ih:t.ih.(gi)
    end
  done;
  let len = !len in
  ignore (propagate s.bit s.rbpos s.iota 0 len ~rev:false s.rx s.rw : bool);
  ignore (propagate s.bit s.rbpos s.iota 0 len ~rev:true s.ry s.rh : bool);
  (* 3. free cells take their slot (dimensions unchanged), islands are
     translated into theirs *)
  for i = 0 to len - 1 do
    let item = s.reduced.(i) in
    if item < n then begin
      x.(item) <- s.rx.(i);
      y.(item) <- s.ry.(i)
    end
    else
      let gi = item - n in
      for k = first gi to first (gi + 1) - 1 do
        let c = s.members.(k) in
        x.(c) <- x.(c) + s.rx.(i);
        y.(c) <- y.(c) + s.ry.(i)
      done
  done

let pack_symmetric_into ?scratch:s ?(fallbacks = Telemetry.Counter.null) ~x ~y
    ~w ~h sp dims groups =
  let n = Sp.size sp in
  let s =
    match s with
    | None -> scratch n
    | Some s when s.capacity >= n -> s
    | Some _ -> invalid_arg "Symmetry: scratch smaller than circuit"
  in
  match prepare s ~w ~h sp dims groups with
  | exception Infeasible msg -> Error msg
  | ng -> (
      match coupled s ~x ~y ~w ~h s.alpha 0 n 0 ng with
      | () -> Ok ()
      | exception Diverged ->
          Telemetry.Counter.incr fallbacks;
          segregate s ~x ~y ~w ~h n ng;
          Ok ())

(* The list API: the right-hand cell of each mirrored pair is placed
   with orientation [MY]. *)
let pack_symmetric sp dims groups =
  let n = Sp.size sp in
  let x = Array.make n 0 and y = Array.make n 0 in
  let w = Array.make n 0 and h = Array.make n 0 in
  pack_symmetric_into ~x ~y ~w ~h sp dims groups
  |> Result.map (fun () ->
         let mirrored = Array.make n false in
         List.iter
           (fun (g : group) ->
             List.iter
               (fun (a, b) -> mirrored.(if x.(a) <= x.(b) then b else a) <- true)
               g.G.pairs)
           groups;
         List.init n (fun c ->
             {
               Transform.cell = c;
               rect = Rect.make ~x:x.(c) ~y:y.(c) ~w:w.(c) ~h:h.(c);
               orient = (if mirrored.(c) then Orientation.MY else Orientation.R0);
             }))
