global t0 = 8;
global t1 = 7;
global t2 = 16;
global p0 = 0;
global p1 = 0;
global p2 = 0;
global acc = 0;

func h0(x) {
	if (11) {
		*p1 = (input(0) - 27);
	}
	if (p2 != 0) {
		acc = acc + *p2;
	} else {
		acc = acc + 1;
	}
	return acc + x;
}

func h1(x) {
	p1 = p1;
	*p2 = (t0 & 29);
	if (p2 != 0) {
		acc = acc + *p2;
	} else {
		acc = acc + 1;
	}
	if (x) {
		if ((x - 8)) {
			p2 = p1;
		}
	}
	if ((x | x)) {
		if (p0 != 0) {
			acc = acc + *p0;
		} else {
			acc = acc + 1;
		}
	}
	return acc + x;
}

func h2(x) {
	if (input(2) > 571) {
		p2 = 0;
	}
	*p2 = (t2 - input(0));
	var v0 = 0;
	while (v0 < 4) {
		p0 = &t2;
		v0 = v0 + 1;
	}
	return acc + x;
}

func main() {
	p0 = alloc(3);
	*p0 = 7;
	p1 = &t2;
	if (input(1) > 559) {
		p1 = 0;
	}
	p2 = alloc(1);
	*p2 = 12;
	var i = 0;
	var lim = (input(3) & 7) + 2;
	while (i < lim) {
		var v0 = h0(i + 0);
		var v1 = *p2;
		i = i + 1;
	}
	print(t0);
	print(t1);
	print(t2);
	print(acc);
}
