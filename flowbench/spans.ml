(* Benchmark-side spans around every call into a layer.

   A span records its name, start, end, the span that was open when it
   began and the job it belongs to. Spans stay in memory and are
   written once, after the timed passes. When the recorder is off,
   [span] is exactly [f ()]. *)

type span = {
  id : int;
  name : string;
  job : int;
  parent : int;  (** -1 for a root span *)
  start : float;
  stop : float;
}

type t = {
  live : bool;
  mutable next : int;
  mutable open_ : int list;
  mutable spans : span list;  (** newest first *)
}

let create ~live = { live; next = 0; open_ = []; spans = [] }

let span t ~job name f =
  if not t.live then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.open_ with p :: _ -> p | [] -> -1 in
    t.open_ <- id :: t.open_;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        t.open_ <- List.tl t.open_;
        t.spans <- { id; name; job; parent; start; stop } :: t.spans)
      f
  end

let spans t = List.rev t.spans

(* Self time: the span's duration minus the time its direct children
   cover. Children of one parent never overlap here (the benchmark is
   sequential), so covering time is their summed duration. *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.stop -. s.start)
          +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
    t.spans;
  List.map
    (fun s ->
      let covered = Option.value (Hashtbl.find_opt child s.id) ~default:0.0 in
      (s, s.stop -. s.start -. covered))
    (spans t)

let to_jsonl oc t =
  let module J = Telemetry.Json in
  List.iter
    (fun (s, self) ->
      output_string oc
        (J.emit
           (J.Obj
              [
                ("id", J.int s.id);
                ("name", J.str s.name);
                ("job", J.int s.job);
                ("parent", J.int s.parent);
                ("start", J.float s.start);
                ("end", J.float s.stop);
                ("self_s", J.float self);
              ]));
      output_char oc '\n')
    (self_times t)
