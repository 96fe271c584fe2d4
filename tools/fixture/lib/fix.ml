let used = 1
let unused = 2
let tested x = x + used
