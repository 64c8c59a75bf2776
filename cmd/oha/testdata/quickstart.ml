
	global counter = 0;
	global m = 0;

	func worker(n) {
		var i = 0;
		while (i < n) {
			lock(&m);
			counter = counter + 1;
			unlock(&m);
			i = i + 1;
		}
	}

	func main() {
		var t1 = spawn worker(input(0));
		var t2 = spawn worker(input(0));
		join(t1);
		join(t2);
		print(counter);
	}
