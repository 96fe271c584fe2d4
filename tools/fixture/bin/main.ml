let () = print_int Fixlib.Fix.used
