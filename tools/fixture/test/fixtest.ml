let () = assert (Fixlib.Fix.tested 1 = 2)
