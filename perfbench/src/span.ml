(** Spans recorded by the benchmark around its calls into the library.

    A span has a name, a start, an end, the span that encloses it and the
    id of the timed unit it belongs to. Spans are kept in memory and
    written out when the run ends. Recording is off unless {!enable} was
    called, and then [with_] is a single branch around the call. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] at top level. *)
  unit_id : int;
  start_s : float;
  end_s : float;
  alloc_bytes : float;  (** Bytes allocated between start and end. *)
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let cur_unit = ref 0
let origin = Unix.gettimeofday ()

let enable () = enabled := true

(** Spans recorded from now on carry a new unit id. *)
let new_unit () = incr cur_unit

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      let a1 = Gc.allocated_bytes () in
      stack := List.tl !stack;
      spans :=
        { id; name; parent; unit_id = !cur_unit; start_s = t0; end_s = t1;
          alloc_bytes = a1 -. a0 }
        :: !spans
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

(** Run [f] with recording off (work that is not part of the measured
    call sequence, such as a live cross-check). *)
let without f =
  let was = !enabled in
  enabled := false;
  Fun.protect ~finally:(fun () -> enabled := was) f

let dur s = s.end_s -. s.start_s

(** Per span id: the time its direct children cover. Children nest inside
    their parent and never overlap (one thread), so a sum is exact. *)
let child_time () =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace tbl s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.parent)))
    !spans;
  tbl

(** Self time of a span: its duration minus what its children cover. *)
let self_time children s = dur s -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id)

(* True when [s] lies inside a span named [phase]. *)
let inside phase =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) !spans;
  let rec up id =
    match Hashtbl.find_opt by_id id with
    | None -> false
    | Some p -> String.equal p.name phase || up p.parent
  in
  fun s -> up s.parent

(** The spans named [name], optionally only those inside a [phase] span. *)
let named ?phase name =
  let keep = match phase with Some p -> inside p | None -> fun _ -> true in
  List.filter (fun s -> String.equal s.name name && keep s) !spans
let count ?phase name = List.length (named ?phase name)

(** Summed duration of the spans named [name], in seconds. *)
let total ?phase name = List.fold_left (fun acc s -> acc +. dur s) 0.0 (named ?phase name)

(** Summed allocation of the spans named [name], in bytes. *)
let alloc ?phase name =
  List.fold_left (fun acc s -> acc +. s.alloc_bytes) 0.0 (named ?phase name)

(** Write the spans as a JSON array, in start order. *)
let write path =
  let children = child_time () in
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\":%d,\"name\":%S,\"parent\":%d,\"unit\":%d,\"start_us\":%.1f,\"end_us\":%.1f,\"self_us\":%.1f,\"alloc_bytes\":%.0f}\n"
        (if i = 0 then "" else ",")
        s.id s.name s.parent s.unit_id
        ((s.start_s -. origin) *. 1e6)
        ((s.end_s -. origin) *. 1e6)
        (self_time children s *. 1e6)
        s.alloc_bytes)
    (List.sort (fun a b -> Int.compare a.id b.id) !spans);
  output_string oc "]\n";
  close_out oc
