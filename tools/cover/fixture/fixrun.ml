let () = print_string (Coverfix.sign (Coverfix.parse "3") ^ Coverfix.sign 0)
