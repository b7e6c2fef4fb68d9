(* Print the serving-stack golden digests (see Serve_golden) to stdout:
   dune exec test/gen_golden.exe > test/golden/serve_digests.txt *)
let () = List.iter print_endline (Serve_golden.lines ())
