(** Golden output digests, committed with the benchmark.

    One line per (workload kind, seed, model, engine):
    [<kind> <seed> <model> <engine> <digest> <verdict>]. A seed of [*]
    stands for every seed: the generator writes it when the digest was the
    same on every seed it generated (an output-shape digest of a model
    whose output shapes do not depend on the input). The digest folds
    the per-instance result fingerprints of one batch, in instance order.
    [kind] is [values] (real tensors, batch 32) or [accounting] (output
    shapes only, batch 64); [engine] is [acrobat], [dynet-agenda] or
    [dynet-depth]. The verdict records the cross-check made when the file
    was generated: [agrees] when the eager PyTorch-policy engine produced
    the same digest on the same weights and input, [differs] when it did
    not and the batch-of-one oracle (the same engine running each instance
    alone, its decision stream keyed by its index) did. *)

type entry = {
  kind : string;
  seed : int option;  (** [None]: every seed. *)
  model : string;
  engine : string;
  digest : string;
  verdict : string;
}

let default_path = "perfbench/golden/digests.txt"

let parse_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ kind; seed; model; engine; digest; verdict ] ->
    let seed = if seed = "*" then None else Some (int_of_string seed) in
    Some { kind; seed; model; engine; digest; verdict }
  | _ -> None

let load path : entry list =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line ->
      if String.length line = 0 || line.[0] = '#' then go acc
      else (
        match parse_line line with
        | Some e -> go (e :: acc)
        | None -> failwith (Printf.sprintf "%s: malformed line %S" path line))
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let find entries ~kind ~seed ~model ~engine =
  List.find_opt
    (fun e ->
      e.kind = kind && (e.seed = None || e.seed = Some seed) && e.model = model
      && e.engine = engine)
    entries

let seed_string = function None -> "*" | Some s -> string_of_int s

let to_line e =
  Printf.sprintf "%s %s %s %s %s %s" e.kind (seed_string e.seed) e.model e.engine e.digest
    e.verdict

(** Fold per-seed entries into one [*] entry per (kind, model, engine)
    whose digest and verdict were the same on every seed. *)
let collapse (entries : entry list) : entry list =
  let seeds = List.sort_uniq compare (List.map (fun e -> e.seed) entries) in
  let same_everywhere e =
    List.length seeds > 1
    && List.for_all
         (fun s ->
           List.exists
             (fun x ->
               x.seed = s && x.kind = e.kind && x.model = e.model && x.engine = e.engine
               && x.digest = e.digest && x.verdict = e.verdict)
             entries)
         seeds
  in
  let shared, own = List.partition same_everywhere entries in
  List.sort_uniq compare (List.map (fun e -> { e with seed = None }) shared) @ own

(** True when the eager engine disagreed with [engine] on [model] for some
    seed: the live cross-check then uses the batch-of-one oracle instead. *)
let reference_differs entries ~kind ~model ~engine =
  List.exists
    (fun e -> e.kind = kind && e.model = model && e.engine = engine && e.verdict <> "agrees")
    entries

(** Order-sensitive digest of a batch's fingerprints. *)
let digest (fps : int64 array) : string =
  Acrobat_runtime.Fingerprint.to_hex
    (Array.fold_left Acrobat_runtime.Fingerprint.step 1L fps)
