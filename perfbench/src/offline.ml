(** The offline workloads: one batch per configuration per round, through
    [Acrobat.run].

    - [offline-accounting]: the seven Table 3 models (small) at batch 64,
      ACROBAT against DyNet (the better of its two schedulers, by
      simulated latency), accounting only.
    - [offline-values]: six of them at batch 32 with real tensor values
      (berxit is left out: one value batch of it takes minutes). *)

open Acrobat

type kind = Accounting | Values

let kind_name = function Accounting -> "accounting" | Values -> "values"
let batch_size = function Accounting -> 64 | Values -> 32

let models = function
  | Accounting -> [ "treelstm"; "mvrnn"; "birnn"; "nestedrnn"; "drnn"; "berxit"; "stackrnn" ]
  | Values -> [ "treelstm"; "mvrnn"; "birnn"; "nestedrnn"; "drnn"; "stackrnn" ]

let acrobat = Frameworks.Acrobat Config.acrobat
let dynet scheduler = Frameworks.Dynet { improved = false; scheduler }

let frameworks = function
  | Accounting ->
    [ "acrobat", acrobat; "dynet-agenda", dynet Config.Agenda; "dynet-depth", dynet Config.Runtime_depth ]
  | Values -> [ "acrobat", acrobat ]

(** Compile one configuration pass by pass, each pass in its own span.
    Same passes as [Acrobat.compile] followed by [Acrobat.tune]. *)
let compile (m : Model.t) fw ~weights ~calibration : compiled =
  let ast = Span.with_ "ir.parse_typecheck" (fun () -> Ir.Typecheck.parse_and_check m.Model.source) in
  let anf = Span.with_ "compiler.anf" (fun () -> Acrobat_compiler.Anf.program ast) in
  let lprog =
    Span.with_ "compiler.lower" (fun () ->
        Lower.program ~config:(Frameworks.config fw) anf ~inputs:m.Model.inputs)
  in
  match fw with
  | Frameworks.Acrobat _ ->
    let c = { lprog; framework = fw; quality = (fun _ -> Autosched.sample_floor) } in
    Span.with_ "compiler.tune" (fun () -> tune c ~weights ~calibration)
  | Frameworks.Dynet _ | Frameworks.Pytorch ->
    { lprog; framework = fw; quality = (fun id -> Autosched.quality Frameworks.vendor_quality id) }

type config = {
  model : string;
  label : string;
  compiled : compiled;
  weights : (string * Tensor.t) list;
  instances : (string * Driver.hval) list list;
}

(* Set-up: weights and compiled programs for every configuration. *)
let setup kind ~seed ~instances_of =
  List.concat_map
    (fun id ->
      let m = (Models.find id).Models.make Model.Small in
      let weights = Span.with_ "models.gen_weights" (fun () -> m.Model.gen_weights seed) in
      let rng = Rng.create (seed + 1) in
      let calibration = List.init 8 (fun _ -> m.Model.gen_instance rng) in
      List.map
        (fun (label, fw) ->
          { model = id; label; compiled = compile m fw ~weights ~calibration; weights;
            instances = instances_of id })
        (frameworks kind))
    (models kind)

let exec ?(compute_values = false) (c : config) =
  let span = if compute_values then "tensor.values_batch" else "runtime.batch" in
  Span.with_ span (fun () ->
      run ~compute_values c.compiled ~weights:c.weights ~instances:c.instances ())

let digest_of (r : Driver.result) =
  Span.with_ "runtime.fingerprint" (fun () -> Golden.digest (Driver.fingerprints r))

(* The batch-of-one oracle: each instance alone, its decision stream keyed
   by its index in the batch. *)
let oracle_digest ~compute_values (c : config) =
  Golden.digest
    (Array.of_list
       (List.mapi
          (fun i inst ->
            let r =
              run_batch ~compute_values ~instance_keys:[| i |] c.compiled ~weights:c.weights
                ~instances:[ inst ] ()
            in
            (Driver.fingerprints r).(0))
          c.instances))

(* The reference engine for the cross-check: the eager PyTorch-policy
   engine on the same weights and input. *)
let eager_digest kind (c : config) =
  let m = (Models.find c.model).Models.make Model.Small in
  (* Only ACROBAT is tuned, so the eager engine needs no calibration. *)
  let compiled = compile m Frameworks.Pytorch ~weights:c.weights ~calibration:[] in
  digest_of (exec ~compute_values:(kind = Values) { c with compiled })

let gen_instances kind ~seed id =
  gen_batch ((Models.find id).Models.make Model.Small) ~batch:(batch_size kind) ~seed:(seed + 100)

(** The expected digest of every configuration: from the golden file when
    it has the seed, else from a live cross-check against the eager engine
    (or against the batch-of-one oracle, for an engine the golden file
    records as disagreeing with the eager one). *)
let expected_digests kind ~seed ~golden (configs : config list) =
  let kname = kind_name kind in
  let eager = Hashtbl.create 8 in
  List.map
    (fun c ->
      match Golden.find golden ~kind:kname ~seed ~model:c.model ~engine:c.label with
      | Some e -> c, e.Golden.digest
      | None ->
        Printf.printf "no golden digest for %s seed %d %s %s: cross-checking live\n%!" kname
          seed c.model c.label;
        if Golden.reference_differs golden ~kind:kname ~model:c.model ~engine:c.label then
          c, oracle_digest ~compute_values:(kind = Values) c
        else begin
          if not (Hashtbl.mem eager c.model) then
            Hashtbl.replace eager c.model (eager_digest kind c);
          c, Hashtbl.find eager c.model
        end)
    configs

let ms_of activity p = Profiler.time_us p activity /. 1000.0

(** The Table 5 split of simulated device time, by metric name. *)
let device_split =
  [
    "device.dfg_ms", Profiler.Dfg_construction;
    "device.sched_ms", Profiler.Scheduling;
    "device.mem_ms", Profiler.Mem_transfer;
    "device.kernel_ms", Profiler.Kernel_exec;
    "device.api_ms", Profiler.Api_overhead;
  ]

let device_metrics = List.map fst device_split
let device_activities = List.map snd device_split

(* Direct [Ops.matmul] calls at the catalog's hidden size: one row, and a
   batch-64 block. *)
let matmul_rates (ms : Measure.t) =
  let h = 256 in
  let rate name ~rows ~reps =
    let rng = Rng.create 7 in
    let a = Tensor.random rng [ rows; h ] and b = Tensor.random rng [ h; h ] in
    let times =
      List.init 3 (fun _ ->
          Span.new_unit ();
          snd
            (Measure.unit ms (fun () ->
                 Span.with_ "tensor.matmul" (fun () ->
                     for _ = 1 to reps do
                       ignore (Ops.matmul a b)
                     done))))
    in
    Report.set name (2.0 *. float_of_int (rows * h * h * reps) /. Measure.median times /. 1e9)
  in
  rate "tensor.matmul_gflops_row" ~rows:1 ~reps:300;
  rate "tensor.matmul_gflops_batch" ~rows:64 ~reps:5;
  Measure.break ms

(** Run the workload; returns items per normalised second. *)
let run_workload kind ~(ms : Measure.t) ~seed ~rounds ~setup_reps ~golden =
  let batch = batch_size kind in
  let instances = List.map (fun id -> id, gen_instances kind ~seed id) (models kind) in
  let instances_of id = List.assoc id instances in
  let compute_values = kind = Values in
  (* Warm-up, untimed and before the yardstick first runs: one set-up and
     one batch of every configuration. It reads each configuration's
     output digest, simulated latency and counters (only summaries are
     kept, not the results), then the peak heap, which is so the
     program's own. *)
  let configs, warm =
    Span.with_ "warmup" @@ fun () ->
    let configs = setup kind ~seed ~instances_of in
    ( configs,
      List.map
        (fun c ->
          let r = exec ~compute_values c in
          let p = r.Driver.stats.profiler in
          let counts =
            [|
              p.Profiler.nodes_created; p.Profiler.kernel_calls; p.Profiler.unbatched_ops;
              r.Driver.stats.flushes;
            |]
          in
          let device = Array.of_list (List.map (fun a -> ms_of a p) device_activities) in
          c, (digest_of r, r.Driver.stats.latency_ms, counts, device))
        configs )
  in
  Report.set "peak_heap_mb" (Measure.peak_heap_mb ms);
  (* Set-up, repeated; its median is [setup_s]. *)
  let (), setup_s =
    Measure.repeated ms ~reps:setup_reps (fun () ->
        Span.new_unit ();
        Span.with_ "setup" (fun () -> ignore (setup kind ~seed ~instances_of)))
  in
  Report.set "setup_s" setup_s;
  let expected = Span.without (fun () -> expected_digests kind ~seed ~golden configs) in
  let check c got =
    let want = List.assq c expected in
    Report.check
      ~what:(Printf.sprintf "%s %s %s digest %s, expected %s" (kind_name kind) c.model c.label got want)
      (String.equal got want)
  in
  List.iter (fun (c, (d, _, _, _)) -> check c d) warm;
  let latency c = let _, l, _, _ = List.assq c warm in l in
  let acro = List.filter (fun c -> c.label = "acrobat") configs in
  Report.set "sim_latency_ms" (Measure.geomean (List.map latency acro));
  let best_dynet a =
    List.filter (fun c -> c.model = a.model && c.label <> "acrobat") configs
    |> List.sort (fun x y -> Float.compare (latency x) (latency y))
    |> function [] -> None | best :: _ -> Some best
  in
  let pairs = List.map (fun a -> a, best_dynet a) acro in
  let timed = List.concat_map (fun (a, d) -> a :: Option.to_list d) pairs in
  if kind = Accounting then
    Report.set "device.dynet_speedup"
      (Measure.geomean
         (List.filter_map (fun (a, d) -> Option.map (fun d -> latency d /. latency a) d) pairs));
  (* Exact per-layer counters of one round (the timed configurations), and
     the Table 5 split of the ACROBAT configurations. *)
  let sum_counts i =
    List.fold_left (fun acc c -> let _, _, k, _ = List.assq c warm in acc + k.(i)) 0 timed
  in
  List.iteri
    (fun i name -> Report.set name (float_of_int (sum_counts i)))
    [ "runtime.dfg_nodes"; "runtime.kernel_calls"; "runtime.unbatched_ops"; "runtime.flushes" ];
  Report.set "runtime.nodes_per_launch"
    (Report.get "runtime.dfg_nodes" /. Report.get "runtime.kernel_calls");
  List.iteri
    (fun i name ->
      Report.set name
        (List.fold_left (fun acc c -> let _, _, _, d = List.assq c warm in acc +. d.(i)) 0.0 acro))
    device_metrics;
  let kernels, defs =
    List.fold_left
      (fun (k, d) c ->
        ( k + List.length (Kernel.all_kernels c.compiled.lprog.Lowered.registry),
          d + Hashtbl.length c.compiled.lprog.Lowered.defs ))
      (0, 0) configs
  in
  Report.set "compiler.kernels" (float_of_int kernels);
  Report.set "compiler.lowered_defs" (float_of_int defs);
  (* Timed rounds: one unit per batch, its output digest included. In the
     values workload each value batch is followed by an accounting batch of
     the same input, so the trace can split tensor time from runtime
     time. *)
  let samples = Hashtbl.create 16 in
  Span.with_ "timed" @@ fun () ->
  for _ = 1 to rounds do
    List.iter
      (fun c ->
        Span.new_unit ();
        let got, s = Measure.unit ms (fun () -> digest_of (exec ~compute_values c)) in
        check c got;
        let key = c.model, c.label in
        Hashtbl.replace samples key (s :: Option.value ~default:[] (Hashtbl.find_opt samples key));
        if compute_values then begin
          Span.new_unit ();
          ignore (Measure.unit ms (fun () -> exec c))
        end)
      timed
  done;
  Measure.break ms;
  if compute_values then matmul_rates ms;
  let rates =
    Hashtbl.fold (fun _ s acc -> (float_of_int batch /. Measure.median s) :: acc) samples []
  in
  Measure.geomean rates

(** Golden entries for one seed: the digest of every configuration, with
    the verdict of the cross-check against the eager engine. Fails when
    neither the eager engine nor the batch-of-one oracle agrees. *)
let golden_entries kind ~seed : Golden.entry list =
  let instances_of = gen_instances kind ~seed in
  let configs = setup kind ~seed ~instances_of in
  let compute_values = kind = Values in
  let eager = Hashtbl.create 8 in
  List.map
    (fun c ->
      let d = digest_of (exec ~compute_values c) in
      if not (Hashtbl.mem eager c.model) then Hashtbl.replace eager c.model (eager_digest kind c);
      let verdict =
        if String.equal d (Hashtbl.find eager c.model) then "agrees"
        else if String.equal d (oracle_digest ~compute_values c) then "differs"
        else
          failwith
            (Printf.sprintf "%s seed %d %s %s: no reference agrees with %s" (kind_name kind) seed
               c.model c.label d)
      in
      { Golden.kind = kind_name kind; seed = Some seed; model = c.model; engine = c.label;
        digest = d; verdict })
    configs
