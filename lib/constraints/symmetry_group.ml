type t = { name : string; pairs : (int * int) list; selfs : int list }

let members g =
  List.concat_map (fun (a, b) -> [ a; b ]) g.pairs @ g.selfs

let make ?(name = "sym") ~pairs ~selfs () =
  let g = { name; pairs; selfs } in
  List.iter
    (fun (a, b) ->
      if a = b then invalid_arg "Symmetry_group.make: pair of equal cells")
    pairs;
  let ms = members g in
  let sorted = List.sort Int.compare ms in
  let rec dup = function
    | a :: b :: _ when a = b -> true
    | _ :: rest -> dup rest
    | [] -> false
  in
  if dup sorted then invalid_arg "Symmetry_group.make: duplicate cell";
  g

let cardinal g = (2 * List.length g.pairs) + List.length g.selfs

let shared_cell groups =
  let owner = Hashtbl.create 16 in
  List.find_map
    (fun (gi, g) ->
      List.find_map
        (fun c ->
          match Hashtbl.find_opt owner c with
          | Some gj when gj <> gi -> Some c
          | Some _ -> None
          | None ->
              Hashtbl.replace owner c gi;
              None)
        (members g))
    (List.mapi (fun gi g -> (gi, g)) groups)
let mem g c = List.mem c (members g)

let sym g c =
  let from_pairs =
    List.find_map
      (fun (a, b) ->
        if a = c then Some b else if b = c then Some a else None)
      g.pairs
  in
  match from_pairs with
  | Some _ as r -> r
  | None -> if List.mem c g.selfs then Some c else None

let group_of_symmetry_node name children =
  (* Two-leaf symmetry child nodes are explicit pairs; direct leaves
     pair consecutively, odd trailing leaf is self-symmetric. *)
  let explicit_pairs =
    List.filter_map
      (function
        | Netlist.Hierarchy.Node
            { kind = Netlist.Hierarchy.Symmetry;
              children = [ Netlist.Hierarchy.Leaf a; Netlist.Hierarchy.Leaf b ];
              _ } ->
            Some (a, b)
        | Netlist.Hierarchy.Node _ | Netlist.Hierarchy.Leaf _ -> None)
      children
  in
  let direct_leaves =
    List.filter_map
      (function Netlist.Hierarchy.Leaf i -> Some i | Netlist.Hierarchy.Node _ -> None)
      children
  in
  let rec pair_up = function
    | a :: b :: rest ->
        let ps, ss = pair_up rest in
        ((a, b) :: ps, ss)
    | [ a ] -> ([], [ a ])
    | [] -> ([], [])
  in
  let leaf_pairs, selfs = pair_up direct_leaves in
  make ~name ~pairs:(explicit_pairs @ leaf_pairs) ~selfs ()

let of_hierarchy tree =
  let rec go = function
    | Netlist.Hierarchy.Leaf _ -> []
    | Netlist.Hierarchy.Node { name; kind; children } ->
        let here =
          match kind with
          | Netlist.Hierarchy.Symmetry ->
              let g = group_of_symmetry_node name children in
              if g.pairs = [] && g.selfs = [] then [] else [ g ]
          | Netlist.Hierarchy.Free | Netlist.Hierarchy.Common_centroid | Netlist.Hierarchy.Proximity
            ->
              []
        in
        here @ List.concat_map go children
  in
  (* A two-leaf symmetry node already consumed as a pair by its parent
     symmetry node would otherwise also produce a singleton group; drop
     groups whose members are all covered by an ancestor group. *)
  let groups = go tree in
  let rec dedup kept = function
    | [] -> List.rev kept
    | g :: rest ->
        let covered =
          List.exists
            (fun (k : t) ->
              List.for_all (fun m -> List.mem m (members k)) (members g))
            kept
        in
        if covered then dedup kept rest else dedup (g :: kept) rest
  in
  dedup [] groups

(* Canonical rendering for cache fingerprints: the group name is a
   label, pair order and within-pair order are representation choices
   (the mirror relation is symmetric), so only the normalized member
   structure enters — pairs min-first and sorted, selfs sorted. *)
let signature g =
  let pairs =
    List.map (fun (a, b) -> if a <= b then (a, b) else (b, a)) g.pairs
    |> List.sort_uniq compare
  in
  let selfs = List.sort_uniq compare g.selfs in
  let buf = Buffer.create 32 in
  Buffer.add_string buf "sym{";
  List.iter
    (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "(%d,%d)" a b))
    pairs;
  Buffer.add_char buf '|';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int s))
    selfs;
  Buffer.add_char buf '}';
  Buffer.contents buf

let pp ppf g =
  Format.fprintf ppf "@[%s: pairs %a selfs %a@]" g.name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       (fun ppf (a, b) -> Format.fprintf ppf "(%d,%d)" a b))
    g.pairs
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       Format.pp_print_int)
    g.selfs
