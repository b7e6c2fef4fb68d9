(** In-process self-tests: normalisation arithmetic, medians, and the
    golden file. The process-level checks (metric names, the yardstick's
    dependencies) are in selftest.py. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("self-test: " ^ m); exit 1) fmt

let close a b = Float.abs (a -. b) <= 1e-12 *. Float.max 1.0 (Float.abs b)

let run () =
  let nominal_ms = 40.0 in
  let normalise = Measure.normalise ~nominal_ms in
  (* A host twice as slow as the reference reads twice the yardstick time:
     its raw times halve once normalised. *)
  let v = normalise ~raw:2.0 ~before_ms:(2.0 *. nominal_ms) ~after_ms:(2.0 *. nominal_ms) in
  if not (close v 1.0) then fail "normalise on a 2x slow host gave %g, expected 1" v;
  let v = normalise ~raw:1.0 ~before_ms:(0.5 *. nominal_ms) ~after_ms:(1.5 *. nominal_ms) in
  if not (close v 1.0) then fail "normalise uses the mean of both readings: got %g" v;
  let v = normalise ~raw:3.0 ~before_ms:nominal_ms ~after_ms:nominal_ms in
  if not (close v 3.0) then fail "normalise at nominal speed changed the value: %g" v;
  if not (close (Measure.median [ 3.0; 1.0; 2.0 ]) 2.0) then fail "median of 3";
  if not (close (Measure.median [ 4.0; 1.0; 2.0; 3.0 ]) 2.5) then fail "median of 4";
  if not (close (Measure.geomean [ 1.0; 4.0; 16.0 ]) 4.0) then fail "geomean";
  (* The chain: four back-to-back units take five yardstick readings. *)
  let ms = Measure.create () in
  for _ = 1 to 4 do
    ignore (Measure.unit ms ignore)
  done;
  if List.length ms.Measure.readings <> 5 then
    fail "4 chained units took %d yardstick readings, expected 5" (List.length ms.Measure.readings);
  (* A digest the same on every seed folds into one [*] line that matches
     any seed; one that differs keeps its per-seed lines. *)
  let e seed model digest =
    { Golden.kind = "accounting"; seed = Some seed; model; engine = "acrobat"; digest;
      verdict = "agrees" }
  in
  let folded = Golden.collapse [ e 0 "a" "d1"; e 0 "b" "d2"; e 1 "a" "d1"; e 1 "b" "d3" ] in
  if List.map Golden.to_line folded
     <> [ "accounting * a acrobat d1 agrees"; "accounting 0 b acrobat d2 agrees";
          "accounting 1 b acrobat d3 agrees" ]
  then fail "Golden.collapse folded to %s" (String.concat "; " (List.map Golden.to_line folded));
  if Golden.find folded ~kind:"accounting" ~seed:99 ~model:"a" ~engine:"acrobat" = None then
    fail "a [*] golden line does not match seed 99";
  let golden = Golden.load Golden.default_path in
  List.iter
    (fun kind ->
      let k = Offline.kind_name kind in
      List.iter
        (fun model ->
          if not (List.exists (fun e -> e.Golden.kind = k && e.Golden.model = model) golden) then
            fail "golden file has no %s digest for %s" k model)
        (Offline.models kind))
    [ Offline.Values; Offline.Accounting ];
  Printf.printf "self-test: normalisation, medians and %d golden digests ok\n" (List.length golden)
